package vecmath

// Blocked verification kernels. LEMP's verification phase — one exact inner
// product per candidate that survived bucket-level pruning — is a dense
// panel-times-vector product in disguise: the probe directions of one bucket
// are contiguous rows, and a candidate set is a (possibly strided) selection
// of them. Both entry points take a whole candidate list per call and run
// several rows per pass, one independent accumulator chain per row, while
// the shared query stays in registers: AVX2 assembly (kernels_amd64.s, one
// YMM lane per row) when internal/simd finds AVX2, the portable dot8
// elsewhere. The choice is read once per call.
//
// Bit-exactness contract, binding on both: every row is accumulated in
// Dot's order — s += ((q0·p0 + q1·p1) + q2·p2) + q3·p3 per group of four,
// then a sequential tail — with one rounding per multiply and per add, so
// the assembly uses VMULPD and VADDPD and never FMA (the Go compiler emits
// no FMA for the Go code on amd64, at GOAMD64=v1 or v3). Each row's result
// is then bit-identical to Dot on that row, and exactness-asserted paths
// (the differential mutation harness) see byte-identical output whichever
// kernel runs. Only a NaN's payload is not pinned: the compiler may commute
// a scalar add's operands, which decides which NaN propagates.

// DotBatch computes the inner product of q against every row of a contiguous
// row-panel: out[i] = Dot(q, panel[i*r:(i+1)*r]) for r = len(q). The panel
// must hold exactly len(out) rows; DotBatch panics otherwise (a programming
// error, not an input error). Each out[i] is bit-identical to the
// corresponding Dot call. A zero-dimension q yields all-zero outputs.
func DotBatch(q, panel, out []float64) {
	r := len(q)
	if len(panel) != len(out)*r {
		panic("vecmath: DotBatch panel size does not match len(out) rows")
	}
	dotRows(q, panel, nil, out)
}

// DotRows computes the inner product of q against a strided selection of
// rows from a contiguous row-panel: out[i] = Dot(q, rows[l*r:(l+1)*r]) with
// l = lids[i] and r = len(q), bit-identical to one Dot call per row. It
// serves candidate lists in generator order, with gaps and in any order.
// len(out) must equal len(lids) and every lid must name a whole row of
// rows; DotRows panics otherwise. It returns how many rows a multi-row
// kernel computed; the others (a ragged tail of the portable kernel) went
// through Dot one at a time.
func DotRows(q, rows []float64, lids []int32, out []float64) (blocked int) {
	r := len(q)
	if len(lids) != len(out) {
		panic("vecmath: DotRows with len(out) != len(lids)")
	}
	if r > 0 {
		n := len(rows) / r
		for _, l := range lids {
			if uint(l) >= uint(n) {
				panic("vecmath: DotRows row index out of range")
			}
		}
	}
	return dotRows(q, rows, lids, out)
}

// dotRows is the body of DotBatch and DotRows: row i is rows[l*r:][:r]
// with l = lids[i], or l = i when lids is nil. It returns how many rows a
// multi-row kernel computed.
func dotRows(q, rows []float64, lids []int32, out []float64) (blocked int) {
	if dotRowsAsm(q, rows, lids, out) {
		return len(out)
	}
	r := len(q)
	row := func(i int) []float64 {
		if lids != nil {
			i = int(lids[i])
		}
		return rows[i*r : i*r+r]
	}
	i := 0
	for ; i+8 <= len(out); i += 8 {
		dot8(q, row(i), row(i+1), row(i+2), row(i+3), row(i+4), row(i+5), row(i+6), row(i+7),
			(*[8]float64)(out[i:i+8]))
	}
	for j := i; j < len(out); j++ {
		out[j] = Dot(q, row(j))
	}
	return i
}

// dot8 is the portable multi-row kernel: out[j] = Dot(q, pj) for eight
// rows at once, bit-identical to eight scalar Dot calls. Eight
// accumulator chains hide the floating-point latency a single Dot chain
// exposes. All rows must have len(q) elements; dot8 panics otherwise.
func dot8(q, p0, p1, p2, p3, p4, p5, p6, p7 []float64, out *[8]float64) {
	r := len(q)
	if len(p0) != r || len(p1) != r || len(p2) != r || len(p3) != r ||
		len(p4) != r || len(p5) != r || len(p6) != r || len(p7) != r {
		panic("vecmath: dot8 on rows of unequal length")
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+4 <= r; i += 4 {
		qq := q[i : i+4 : i+4]
		q0, q1, q2, q3 := qq[0], qq[1], qq[2], qq[3]
		s0 += q0*p0[i] + q1*p0[i+1] + q2*p0[i+2] + q3*p0[i+3]
		s1 += q0*p1[i] + q1*p1[i+1] + q2*p1[i+2] + q3*p1[i+3]
		s2 += q0*p2[i] + q1*p2[i+1] + q2*p2[i+2] + q3*p2[i+3]
		s3 += q0*p3[i] + q1*p3[i+1] + q2*p3[i+2] + q3*p3[i+3]
		s4 += q0*p4[i] + q1*p4[i+1] + q2*p4[i+2] + q3*p4[i+3]
		s5 += q0*p5[i] + q1*p5[i+1] + q2*p5[i+2] + q3*p5[i+3]
		s6 += q0*p6[i] + q1*p6[i+1] + q2*p6[i+2] + q3*p6[i+3]
		s7 += q0*p7[i] + q1*p7[i+1] + q2*p7[i+2] + q3*p7[i+3]
	}
	for ; i < r; i++ {
		x := q[i]
		s0 += x * p0[i]
		s1 += x * p1[i]
		s2 += x * p2[i]
		s3 += x * p3[i]
		s4 += x * p4[i]
		s5 += x * p5[i]
		s6 += x * p6[i]
		s7 += x * p7[i]
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
	out[4], out[5], out[6], out[7] = s4, s5, s6, s7
}

// DotNorm2 fuses the two accumulations INCR-style bounds need — the inner
// product a·b and the squared norm ‖b‖² — into one pass over b, halving the
// memory traffic of computing them separately. The slices must have equal
// length; DotNorm2 panics otherwise. The dot accumulator follows Dot's
// order exactly (bit-identical to Dot(a, b)); the norm accumulator uses the
// same unrolled grouping, which may differ from Norm2's sequential order in
// the last bits — callers needing bit-compatibility with Norm2 must keep
// calling Norm2.
func DotNorm2(a, b []float64) (dot, norm2 float64) {
	if len(a) != len(b) {
		panic("vecmath: DotNorm2 on vectors of unequal length")
	}
	var s, n float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		s += a[i]*b0 + a[i+1]*b1 + a[i+2]*b2 + a[i+3]*b3
		n += b0*b0 + b1*b1 + b2*b2 + b3*b3
	}
	for ; i < len(a); i++ {
		x := b[i]
		s += a[i] * x
		n += x * x
	}
	return s, n
}
