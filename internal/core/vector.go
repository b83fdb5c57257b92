package core

import (
	"fmt"
	"math"

	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/types"
)

// Page-at-a-time evaluation. The paper's generated C is tuple-at-a-time:
// gcc inlines the arithmetic into one loop per operator. Go cannot inline
// a closure composed at run time, so a per-tuple closure tree costs one
// indirect call per expression node and tuple. Instead, every expression
// compiles once into a flat list of steps, and each step runs one loop
// over a batch — the tuples of one page that a selection vector names —
// into a register: a vector of the batch's length held in the pooled
// Scratch. The dispatch is paid per page, not per tuple (the X100 idea),
// and each loop body performs exactly the IEEE operation the tuple-at-a-
// time expression does, in the same order per tuple.

// vecOp is a step's operation: a column load, a constant fill, or one of
// the four arithmetic operators (sql.BinaryOp's values).
type vecOp byte

const (
	opLoad     vecOp = 'L' // the column at off, in the register's kind
	opLoadConv vecOp = 'C' // an Int/Date column at off, converted to float
	opFill     vecOp = 'K' // the constant
)

// vecStep is one step of a compiled expression set: one loop over the
// batch into register dst. a and b are registers of the same kind, or
// -1 for the constant k (its bits).
type vecStep struct {
	op        vecOp
	float     bool
	dst, a, b int
	off       int
	k         uint64
}

// vecProg is a compiled set of expressions over one input schema. Equal
// steps compile once, so a column two expressions read is loaded once
// and a repeated subexpression is evaluated once.
type vecProg struct {
	steps  []vecStep
	nf, ni int // float and int register counts
}

// operand is a compiled subexpression: a register, or (reg -1) a
// constant's bits.
type operand struct {
	reg int
	k   uint64
}

// expr compiles e over in and returns the register its value lands in:
// a Float register when float is set — every node below it evaluated in
// float, an Int leaf converted — an Int register otherwise, as
// MakeProjector's kinds say.
func (p *vecProg) expr(e plan.Expr, in *types.Schema, float bool) int {
	o := p.operand(e, in, float)
	if o.reg < 0 {
		return p.emit(vecStep{op: opFill, float: float, a: -1, b: -1, k: o.k})
	}
	return o.reg
}

// operand compiles e as expr does, but leaves a constant leaf unloaded
// so that its parent folds it into its loop.
func (p *vecProg) operand(e plan.Expr, in *types.Schema, float bool) operand {
	switch v := e.(type) {
	case *plan.ColExpr:
		op := opLoad
		if float && v.K != types.Float {
			op = opLoadConv
		}
		return operand{reg: p.emit(vecStep{op: op, float: float, a: -1, b: -1, off: in.Offset(v.Col)})}
	case *plan.ConstExpr:
		if !float {
			return operand{reg: -1, k: uint64(v.D.I)}
		}
		c := v.D.F
		if v.D.Kind != types.Float {
			c = float64(v.D.I)
		}
		return operand{reg: -1, k: math.Float64bits(c)}
	case *plan.ArithExpr:
		l, r := p.operand(v.L, in, float), p.operand(v.R, in, float)
		op := vecOp(v.Op)
		if !float && v.Op == sql.OpDiv {
			panic("core: integer division (the planner promotes it to float)")
		}
		if l.reg < 0 && r.reg < 0 {
			l = operand{reg: p.expr(v.L, in, float)}
		}
		// A register operand's k is zero, so l.k | r.k is the constant.
		return operand{reg: p.emit(vecStep{op: op, float: float, a: l.reg, b: r.reg, k: l.k | r.k})}
	}
	panic(fmt.Sprintf("core: bad expression node %T", e))
}

// emit appends s unless an equal step exists, and returns its register.
func (p *vecProg) emit(s vecStep) int {
	for _, t := range p.steps {
		reg := t.dst
		if t.dst = s.dst; t == s {
			return reg
		}
	}
	if s.float {
		s.dst, p.nf = p.nf, p.nf+1
	} else {
		s.dst, p.ni = p.ni, p.ni+1
	}
	p.steps = append(p.steps, s)
	return s.dst
}

// run evaluates every step over the tuples of data (width w) that sel
// selects, leaving register r's value for the j-th of them at
// sc.floats(r)[j] or sc.ints(r)[j].
func (p *vecProg) run(sc *Scratch, data []byte, w int, sel []int32) {
	n := len(sel)
	sc.n = n
	sc.fr, sc.ir = Grown(sc.fr, n*p.nf), Grown(sc.ir, n*p.ni)
	for i := range p.steps {
		s := &p.steps[i]
		switch {
		case s.op == opLoad && s.float:
			d := sc.floats(s.dst)
			for j, k := range sel {
				d[j] = types.GetFloat(data, int(k)*w+s.off)
			}
		case s.op == opLoadConv:
			d := sc.floats(s.dst)
			for j, k := range sel {
				d[j] = float64(types.GetInt(data, int(k)*w+s.off))
			}
		case s.op == opLoad:
			d := sc.ints(s.dst)
			for j, k := range sel {
				d[j] = types.GetInt(data, int(k)*w+s.off)
			}
		case s.float:
			k := [1]float64{math.Float64frombits(s.k)}
			a, ma := operandOf(sc.fr, s.a, n, k[:])
			b, mb := operandOf(sc.fr, s.b, n, k[:])
			arith(s.op, sc.floats(s.dst), a, b, ma, mb)
		default:
			k := [1]int64{int64(s.k)}
			a, ma := operandOf(sc.ir, s.a, n, k[:])
			b, mb := operandOf(sc.ir, s.b, n, k[:])
			arith(s.op, sc.ints(s.dst), a, b, ma, mb)
		}
	}
}

// operandOf is register r of file, or — r is -1 — the constant k, with
// the index mask arith reads it through: -1 for a register, 0 for the
// constant, which the loop then reads at index 0 every time.
func operandOf[T any](file []T, r, n int, k []T) ([]T, int) {
	if r < 0 {
		return k, 0
	}
	return register(file, r, n), -1
}

// arith is one arithmetic step over a batch, d[j] = a[j] op b[j], or a
// fill, d[j] = a[j]. A constant operand is folded into the loop through
// its zero index mask. Every result passes through an explicit
// conversion, which the Go spec says rounds: no loop may fuse a multiply
// and an add the tuple-at-a-time evaluation rounds apart.
func arith[T int64 | float64](op vecOp, d, a, b []T, ma, mb int) {
	switch sql.BinaryOp(op) {
	case sql.OpAdd:
		for j := range d {
			d[j] = T(a[j&ma] + b[j&mb])
		}
	case sql.OpSub:
		for j := range d {
			d[j] = T(a[j&ma] - b[j&mb])
		}
	case sql.OpMul:
		for j := range d {
			d[j] = T(a[j&ma] * b[j&mb])
		}
	case sql.OpDiv:
		for j := range d {
			d[j] = T(a[j&ma] / b[j&mb])
		}
	default: // opFill
		for j := range d {
			d[j] = a[j&ma]
		}
	}
}

// Projector is a staged-column list compiled over its input schema: the
// plain copies coalesced into byte ranges, and the computed columns one
// vector program.
type Projector struct {
	copies   []CopyRange
	prog     vecProg
	computed []projOut
	width    int
}

// projOut is a computed column: the register holding its value, its
// output offset, and its kind.
type projOut struct {
	reg, off int
	float    bool
}

// MakeProjector compiles a staged-column list into a Projector.
func MakeProjector(in *types.Schema, cols []plan.OutputColumn, out *types.Schema) *Projector {
	pj := &Projector{width: out.TupleSize()}
	for i, c := range cols {
		dstOff := out.Offset(i)
		if c.Source >= 0 && c.Compute == nil {
			// Adjacent copies coalesce into single memmoves (the
			// generated code copies whole field runs where offsets line
			// up).
			pj.copies = AppendCopy(pj.copies, CopyRange{in.Offset(c.Source), dstOff, c.Size})
			continue
		}
		k := c.Compute.Kind()
		if k != types.Int && k != types.Date && k != types.Float {
			panic(fmt.Sprintf("core.MakeProjector: unsupported computed kind %v", k))
		}
		pj.computed = append(pj.computed, projOut{pj.prog.expr(c.Compute, in, k == types.Float), dstOff, k == types.Float})
	}
	return pj
}

// Project writes the projection of each tuple of data (width w) that sel
// selects into dst, one output tuple after another: the copies tuple by
// tuple, then each computed column by its vector program. A single tuple
// is the batch data = tuple, sel = Scratch.One().
func (pj *Projector) Project(sc *Scratch, data []byte, w int, sel []int32, dst []byte) {
	ow := pj.width
	for j, k := range sel {
		CopyInto(dst[j*ow:], data[int(k)*w:], pj.copies)
	}
	pj.prog.run(sc, data, w, sel)
	for _, c := range pj.computed {
		if c.float {
			for j, v := range sc.floats(c.reg) {
				types.PutFloat(dst, j*ow+c.off, v)
			}
		} else {
			for j, v := range sc.ints(c.reg) {
				types.PutInt(dst, j*ow+c.off, v)
			}
		}
	}
}
