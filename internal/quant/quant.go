// Package quant implements the int8 sidecar used to screen verification
// candidates before the exact f64 kernels run. Exact verification is
// memory-bandwidth-bound: every candidate that survives bucket pruning
// streams its full float64 row through the cache even when its product ends
// far below the threshold. A per-row symmetric int8 quantization (scale =
// maxabs/127) shrinks a row 8×; a cheap int8 dot against the quantized
// query, widened by a provably conservative error bound, rules most losers
// out while touching only the sidecar — survivors fall through to the exact
// kernels, so exact results never change.
//
// # The bound
//
// Write the query as q = q̂ + e_q and a row as p = p̂ + e_p, where
// q̂ = qscale·qcodes and p̂ = scale·codes are the dequantized vectors and
// e_q, e_p the quantization residuals. Then
//
//	qᵀp − q̂ᵀp̂ = q̂ᵀe_p + e_qᵀp̂ + e_qᵀe_p,
//
// so by Cauchy–Schwarz
//
//	|qᵀp − q̂ᵀp̂| ≤ ‖q̂‖·‖e_p‖ + ‖e_q‖·(‖p̂‖ + ‖e_p‖).
//
// ApproxBound evaluates q̂ᵀp̂ exactly (an integer dot times two scales; the
// integer fits float64 for every supported dimension) and returns that
// Cauchy–Schwarz bound widened by three float-rounding allowances: the
// stored norms and residuals are inflated upper bounds of the true values,
// a term of order r·2⁻⁵³·‖q‖·‖p‖ covers the accumulation rounding of the
// exact float64 Dot the bound must bracket (the screening contract is
// against what vecmath.Dot computes, not against the mathematical product),
// and the bound's own arithmetic is inflated once more. The contract, which
// quant_test.go property-checks over adversarial inputs:
//
//	approx − bound ≤ Dot(q, row_i) ≤ approx + bound
//
// for all finite inputs; whenever a quantity overflows or an input is
// non-finite, ApproxBound returns (0, +Inf), which no screening predicate
// of the form "upper bound below cutoff" can ever discard.
//
// # The checkpoint
//
// A full int8 dot costs the same arithmetic per element as the exact f64
// kernels, so screening with it only breaks even. The screen therefore runs
// a remaining-mass checkpoint first (the SpAMM idea): compute the integer
// dot over a head prefix of HeadLen(r) dimensions and bound the untouched
// tail by Cauchy–Schwarz on precomputed integer code norms,
//
//	d_tail ≤ ‖q̂codes[h:]‖ · ‖codes_i[h:]‖,
//
// both sides exact integer sums, stored inflated. Screen.UB turns that into
// an upper bound on the exact dot using only h of r multiply-adds; a
// candidate whose checkpoint bound already falls below the cutoff is
// screened at a fraction of the exact kernel's cost, and survivors finish
// the remaining dimensions (FinishApproxBound — bit-identical to the full
// ApproxBound, integer arithmetic being grouping-insensitive). The
// checkpoint bites when code mass concentrates in the head prefix — the
// natural shape of SVD/NMF factor matrices, whose dimensions come ordered
// by singular value.
//
// The checkpoint runs once per candidate, so its latency chain is the
// screen's cost floor; it is therefore evaluated as naked linear arithmetic
// over per-query constants (hoisted into Screen) and per-row constants
// (precomputed at quantization time), with every rounding it commits
// absorbed by the screenSlack·‖q‖·‖p‖ term rather than per-step inflation:
// each of its ~10 roundings errs by at most one ulp of a quantity bounded
// by ‖q‖·‖p‖ (every factor pair is norm-dominated), and screenSlack
// reserves dozens of ulps beyond what the dot-accumulation bound needs.
//
// # Kernels
//
// Screen.Filter, the verifier's entry point, runs hand-written AVX2
// assembly (screen_amd64.s) when internal/simd finds AVX2 at start-up and
// the portable screen8 loop otherwise. The two must keep exactly the same
// candidates, because the exact path never sees the ones they drop and the
// exactness harnesses compare results byte for byte across machines. The
// contract both implement: the head dot is an integer sum (its grouping
// cannot change it); the bound is evaluated as
// ((qs·sc0)·dh + qsqtn·sc1) + resid, in that order, one rounding per
// multiply and add and never a fused multiply-add; and a candidate is
// dropped only when both ordered comparisons ub ≥ −MaxFloat64 and
// ub·len < cut hold, so a NaN anywhere keeps it.
package quant

import (
	"math"
	"math/bits"
)

// MaxDim is the largest row dimension the sidecar supports: DotQ8
// accumulates int8 products in an int32, and 127²·2¹⁷ is the largest
// power-of-two multiple of the maximal product still below 2³¹. Callers
// must not quantize wider rows (core simply disables screening there).
const MaxDim = 1 << 17

// ulp is the double-precision unit roundoff 2⁻⁵³.
const ulp = 1.0 / (1 << 53)

// tiny is an absolute slack folded into every inflated bound, dominating
// the absolute error of underflowed arithmetic. The worst case is a norm:
// every squared term of a sum can underflow to zero (true value just below
// the subnormal step 2⁻¹⁰⁷⁴), and the square root turns that absolute sum
// error of r·2⁻¹⁰⁷⁴ into an absolute norm error of √(r·2⁻¹⁰⁷⁴) ≤ 10⁻¹⁵⁸
// for r ≤ MaxDim. 10⁻¹⁵⁰ dominates it with margin while staying
// astronomically below any dot product a screening threshold could target.
const tiny = 1e-150

// HeadLen returns the checkpoint prefix length for dimension r: the number
// of leading dimensions Screen.UB dots exactly before bounding the rest by
// remaining mass. A sixth of the dimensions, floored at 16 — below that the
// per-candidate bound arithmetic costs more than the skipped multiply-adds,
// while on spectrally decaying data (the shape the checkpoint targets) the
// dims past r/6 add little discrimination per multiply-add — and capped at
// r, where the checkpoint degenerates to the full dot (tail norms are zero
// and the checkpoint equals ApproxBound's upper edge). Deterministic in r
// alone so QuantizeQuery and QuantizeRows agree without coordination.
func HeadLen(r int) int {
	h := r / 6
	if h < 16 {
		h = 16
	}
	if h > r {
		h = r
	}
	return h
}

// Rows is the int8 sidecar of one contiguous row-panel (in core: one
// bucket's normalized directions): per row a scale, the quantized codes,
// and inflated upper bounds on the quantization residual norm ‖e_p‖ and
// the dequantized norm ‖p̂‖.
type Rows struct {
	r    int
	n    int
	head int // checkpoint prefix length, HeadLen(r)

	// Scales[i] is row i's quantization step (maxabs/127; 0 for a zero
	// row). Codes holds the int8 payload, row-major (n × r), every value
	// in [-127, 127]. Resid[i] ≥ ‖row_i − Scales[i]·Codes_i‖ and
	// Norm[i] ≥ ‖Scales[i]·Codes_i‖ are the bound inputs; a row holding a
	// non-finite value gets Resid[i] = +Inf and is never screened.
	// TailNorm[i] ≥ ‖Codes_i[head:]‖ (integer code units, derived from
	// Codes — recomputed on load, never persisted) feeds the checkpoint's
	// remaining-mass bound.
	Scales   []float64
	Codes    []int8
	Resid    []float64
	Norm     []float64
	TailNorm []float64

	// screen interleaves the two per-row checkpoint constants —
	// screen[2i] = Scales[i] and screen[2i+1] = Scales[i]·TailNorm[i],
	// the remaining-mass factor — so the hot predicate touches one cache
	// line per row instead of two arrays. The fused factor is NaN for
	// non-finite rows, poisoning the checkpoint bound to +Inf so they are
	// never screened. maxResid and maxNormUB are the largest finite
	// Resid[i] and Norm[i]+Resid[i] across the panel: the checkpoint
	// substitutes them for the per-row values (a sound
	// over-approximation), shrinking the per-candidate work to one fused
	// constant — the exact path then verifies the few borderline
	// candidates the per-row bound would have screened.
	screen    []float64
	maxResid  float64
	maxNormUB float64
}

// R returns the row dimension.
func (qr *Rows) R() int { return qr.r }

// N returns the number of rows.
func (qr *Rows) N() int { return qr.n }

// Row returns the int8 codes of row i.
func (qr *Rows) Row(i int) []int8 {
	return qr.Codes[i*qr.r : (i+1)*qr.r : (i+1)*qr.r]
}

// Bytes returns the sidecar's memory footprint: codes plus the per-row
// float64 arrays (bound inputs and the interleaved checkpoint constants).
func (qr *Rows) Bytes() int {
	if qr == nil {
		return 0
	}
	return len(qr.Codes) + 8*(len(qr.Scales)+len(qr.Resid)+len(qr.Norm)+len(qr.TailNorm)+len(qr.screen))
}

// sumSlack bounds the relative error of a float64 sum of r nonnegative
// products followed by a square root, with a wide safety margin.
func sumSlack(r int) float64 { return 4 * float64(r+8) * ulp }

// dotSlack bounds |Dot(q,p) − qᵀp| relative to ‖q‖·‖p‖ for the float64
// accumulation order vecmath.Dot uses (error ≤ γ_r·Σ|q_i p_i| with
// γ_r ≈ r·2⁻⁵³; the constant is generous to cover unrolled groupings).
func dotSlack(r int) float64 { return 4 * float64(r+8) * ulp }

// inflate widens a computed upper bound so that its own floating-point
// rounding cannot make it undershoot: rel must dominate the relative error
// of the computation that produced x.
func inflate(x, rel float64) float64 { return x + x*rel + tiny }

// QuantizeRows builds the sidecar of a contiguous row-major panel holding
// len(rows)/r rows of dimension r. r must be in [1, MaxDim] and divide
// len(rows); QuantizeRows panics otherwise (a programming error). Zero rows
// quantize to scale 0 with zero residual; rows holding NaN or ±Inf get an
// infinite residual bound, so they always survive screening and reach the
// exact path.
func QuantizeRows(rows []float64, r int) *Rows {
	if r < 1 || r > MaxDim {
		panic("quant: QuantizeRows dimension out of [1, MaxDim]")
	}
	if len(rows)%r != 0 {
		panic("quant: QuantizeRows panel size not a multiple of the dimension")
	}
	n := len(rows) / r
	qr := &Rows{
		r:        r,
		n:        n,
		head:     HeadLen(r),
		Scales:   make([]float64, n),
		Codes:    make([]int8, n*r),
		Resid:    make([]float64, n),
		Norm:     make([]float64, n),
		TailNorm: make([]float64, n),
		screen:   make([]float64, 2*n),
	}
	for i := 0; i < n; i++ {
		row := rows[i*r : (i+1)*r]
		codes := qr.Codes[i*r : (i+1)*r]
		qr.Scales[i], qr.Resid[i], qr.Norm[i] = quantizeRow(codes, row)
		qr.TailNorm[i] = codeNormUB(codes[qr.head:])
		qr.screen[2*i] = qr.Scales[i]
		if math.IsInf(qr.Resid[i], 1) {
			qr.screen[2*i+1] = math.NaN()
			continue
		}
		qr.screen[2*i+1] = qr.Scales[i] * qr.TailNorm[i]
		if qr.Resid[i] > qr.maxResid {
			qr.maxResid = qr.Resid[i]
		}
		if ub := qr.Norm[i] + qr.Resid[i]; ub > qr.maxNormUB {
			qr.maxNormUB = ub
		}
	}
	return qr
}

// codeNormUB returns an inflated upper bound on the Euclidean norm of an
// int8 code slice. The squared sum is an integer below 127²·MaxDim < 2⁵³,
// so every addition is exact and only the square root rounds — 4 ulp of
// relative inflation dominates it. A zero slice returns exactly 0, keeping
// the degenerate checkpoint (head == r) tight.
func codeNormUB(codes []int8) float64 {
	var s float64
	for _, c := range codes {
		s += float64(c) * float64(c)
	}
	n := math.Sqrt(s)
	return n + n*(4*ulp)
}

// quantizeRow fills codes with the symmetric int8 quantization of row and
// returns (scale, residual-norm upper bound, dequantized-norm upper bound).
func quantizeRow(codes []int8, row []float64) (scale, resid, norm float64) {
	maxabs := 0.0
	for _, x := range row {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// Non-finite row: no usable quantization. Zero codes, infinite
			// residual — ApproxBound returns (0, +Inf) and the row is never
			// screened.
			for j := range codes {
				codes[j] = 0
			}
			return 0, math.Inf(1), 0
		}
		if a := math.Abs(x); a > maxabs {
			maxabs = a
		}
	}
	if maxabs == 0 {
		for j := range codes {
			codes[j] = 0
		}
		return 0, 0, 0
	}
	scale = maxabs / 127
	if math.IsInf(scale, 0) || scale == 0 {
		// maxabs/127 overflowed or underflowed to a degenerate step (maxabs
		// near the float64 extremes); treat like a non-finite row.
		for j := range codes {
			codes[j] = 0
		}
		return 0, math.Inf(1), 0
	}
	// Quantize by reciprocal multiply: a division per coordinate costs
	// several times a multiply and this loop runs per query on the serving
	// path. The code choice itself carries no soundness weight — the
	// residual bound below is computed from the codes actually stored, so
	// any rounding of the quotient only moves error between the code and
	// the (exactly accounted) residual. The reciprocal overflows only for
	// subnormal scales; fall back to division there.
	inv := 1 / scale
	div := math.IsInf(inv, 0)
	var sumd, sumq float64
	for j, x := range row {
		var c float64
		if div {
			c = math.RoundToEven(x / scale)
		} else {
			c = math.RoundToEven(x * inv)
		}
		// The quotient can round a full-scale coordinate past ±127
		// (|x| == maxabs gives exactly ±127 only when it is exact); clamp
		// so the code always fits the int8 contract.
		if c > 127 {
			c = 127
		} else if c < -127 {
			c = -127
		}
		codes[j] = int8(c)
		deq := scale * c
		d := x - deq
		sumd += d * d
		sumq += deq * deq
	}
	slack := sumSlack(len(row))
	norm = inflate(math.Sqrt(sumq), slack)
	// ‖e_p‖ in exact arithmetic differs from the computed ‖d‖ by at most
	// the rounding of scale·c and of the subtraction, each ≤ 2⁻⁵³ relative
	// to the dequantized coordinate — covered by the 4·2⁻⁵²·‖p̂‖ term.
	resid = inflate(math.Sqrt(sumd)+4*(2*ulp)*norm, slack)
	if math.IsNaN(resid) || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return 0, math.Inf(1), 0
	}
	return scale, resid, norm
}

// Query is a quantized query vector: the same per-vector symmetric scheme,
// with the codes kept in a caller-owned buffer so steady-state retrieval
// quantizes queries without allocating.
type Query struct {
	Scale    float64
	Codes    []int8
	Resid    float64 // upper bound on ‖q − Scale·Codes‖
	Norm     float64 // upper bound on ‖Scale·Codes‖
	TailNorm float64 // upper bound on ‖Codes[HeadLen(r):]‖, integer code units
}

// QuantizeQuery quantizes q into the caller's dst buffer (len(dst) must be
// len(q); QuantizeQuery panics otherwise). ok is false when q holds a
// non-finite value or its magnitude defeats quantization — callers must
// then skip screening entirely and verify every candidate exactly.
func QuantizeQuery(dst []int8, q []float64) (qq Query, ok bool) {
	if len(dst) != len(q) {
		panic("quant: QuantizeQuery buffer size does not match the query dimension")
	}
	if len(q) == 0 || len(q) > MaxDim {
		return Query{}, false
	}
	scale, resid, norm := quantizeRow(dst, q)
	if math.IsInf(resid, 0) {
		return Query{}, false
	}
	return Query{
		Scale:    scale,
		Codes:    dst,
		Resid:    resid,
		Norm:     norm,
		TailNorm: codeNormUB(dst[HeadLen(len(q)):]),
	}, true
}

// DotQ8 returns the integer inner product of two int8 code vectors. The
// slices must have equal length ≤ MaxDim with values in [-127, 127], as
// QuantizeRows and QuantizeQuery produce; within that contract the int32
// accumulators cannot overflow. Unrolled by four with independent
// accumulator chains, mirroring the float64 kernels in internal/vecmath.
func DotQ8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("quant: DotQ8 on code vectors of unequal length")
	}
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	var s int32
	for ; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s + s0 + s1 + s2 + s3
}

// ApproxBound returns the quantized estimate of Dot(q, row_i) and a
// conservative radius: approx−bound ≤ Dot(q, row_i) ≤ approx+bound, where
// Dot is the float64 kernel result, not the mathematical product. When any
// input is non-finite or an intermediate overflows, it returns (0, +Inf) —
// a candidate that can never be screened. Pure arithmetic over the sidecar;
// no allocation, no f64 row access.
func (qr *Rows) ApproxBound(qq Query, i int) (approx, bound float64) {
	return qr.boundFromDot(qq, i, float64(DotQ8(qq.Codes, qr.Row(i))))
}

// boundFromDot evaluates the scales and the Cauchy–Schwarz bound for row i
// given its raw integer dot against the query codes.
func (qr *Rows) boundFromDot(qq Query, i int, dq float64) (approx, bound float64) {
	approx = qq.Scale * qr.Scales[i] * dq
	bound = qr.boundOnly(qq, i)
	if math.IsInf(approx, 0) || math.IsNaN(approx) || math.IsNaN(bound) {
		return 0, math.Inf(1)
	}
	return approx, bound
}

// boundOnly evaluates the dot-independent part of the bracket: the
// Cauchy–Schwarz quantization-residual bound plus the float-rounding
// allowances.
func (qr *Rows) boundOnly(qq Query, i int) float64 {
	pNorm := qr.Norm[i]
	pResid := qr.Resid[i]
	// ‖p‖ ≤ ‖p̂‖+‖e_p‖ and ‖q‖ ≤ ‖q̂‖+‖e_q‖ feed the Dot-rounding term.
	pUB := pNorm + pResid
	qUB := qq.Norm + qq.Resid
	cs := qq.Norm*pResid + qq.Resid*pUB
	// approx is computed with two roundings (integer dot exact in float64);
	// its error ≤ 3·2⁻⁵³·|approx| ≤ 3·2⁻⁵³·‖q̂‖·‖p̂‖ is dominated by the
	// dotSlack term, which also covers the exact kernel's accumulation.
	return inflate(cs+dotSlack(qr.r)*qUB*pUB, 16*ulp)
}

// screenSlack is the relative allowance backing the checkpoint's naked
// arithmetic: it must dominate, relative to ‖q‖·‖p‖, the exact kernel's
// accumulation rounding (as dotSlack does), the approx roundings, and the
// ~13 further roundings the fused checkpoint commits (including the emit
// pre-fold in NewScreen) — each at most one ulp of a norm-dominated
// quantity. The extra headroom over dotSlack is 32 ulp, roughly double what
// those roundings can consume.
func screenSlack(r int) float64 { return 4*float64(r+8)*ulp + 32*ulp }

// Screen is the per-query state of the checkpoint predicate: the query's
// scale and the hoisted bound coefficients, folded so the per-candidate
// evaluation is four multiplies and two adds over two per-row constants.
// Build one per (query, panel) screening pass with NewScreen.
type Screen struct {
	qr    *Rows
	codes []int8  // query codes, head prefix
	qs    float64 // emit·(query scale)
	qsqtn float64 // emit·qs·‖query codes[head:]‖ᵘᵇ, the remaining-mass factor
	resid float64 // emit·(panel residual term: qn·maxResid + qfac·maxNormUB) + tiny
}

// NewScreen hoists the query-side constants of the checkpoint bound,
// pre-multiplied by the caller's emit factor: UB then bounds emit·Dot
// directly, saving one multiply per candidate in the screening loop (pass
// emit = 1 for a bound on the bare dot). emit must be nonnegative — a
// negative factor would flip the bound's side; a NaN or +Inf emit only
// poisons the bound conservatively to +Inf. The residual term substitutes the
// panel-wide maxima for the per-row residual and norm — a sound
// over-approximation that turns two per-row loads and three flops into one
// constant; the exact kernels (or, in Approx mode, FinishApproxBound)
// restore the tight per-row treatment for checkpoint survivors.
func (qr *Rows) NewScreen(qq Query, emit float64) Screen {
	qUB := qq.Norm + qq.Resid
	qfac := qq.Resid + screenSlack(qr.r)*qUB
	return Screen{
		qr:    qr,
		codes: qq.Codes[:qr.head],
		qs:    emit * qq.Scale,
		qsqtn: emit * qq.Scale * qq.TailNorm,
		resid: emit*(qq.Norm*qr.maxResid+qfac*qr.maxNormUB) + tiny,
	}
}

// UB computes the checkpoint for row i: the integer dot over the head
// prefix (returned so FinishApproxBound can complete it) and a conservative
// upper bound on emit·Dot(q, row_i) — emit being NewScreen's pre-folded
// factor — built from that prefix plus the remaining-mass Cauchy–Schwarz
// term:
//
//	ub = emit·(S_q·S_p·d_head + S_q·‖q̂c tail‖·S_p·‖p̂c tail‖ + resid)
//
// with resid ≥ ‖q̂‖·‖e_p‖ + ‖e_q‖·‖p‖ᵘᵇ + screenSlack·‖q‖ᵘᵇ·‖p‖ᵘᵇ for every
// row of the panel, evaluated without per-step inflation — every rounding
// is norm-dominated (emit scales all terms alike, so relative slack covers
// its roundings too) and pre-paid by the screenSlack share of resid (see
// the package comment). ub ≥ fl(emit·Dot(q, row_i)) for all finite inputs;
// non-finite inputs or overflow yield ub = +Inf or NaN — NaN compares false
// against any cutoff, and the one dangerous pole, −Inf (an overflowed scale
// times a negative head sum), is redirected to +Inf. Under that contract a
// caller screening on "ub·len < cut" with the same emit order can never
// discard a candidate the exact path would emit.
func (s *Screen) UB(i int) (head int32, ub float64) {
	qr := s.qr
	dh := DotQ8(s.codes, qr.Codes[i*qr.r:i*qr.r+qr.head])
	return dh, s.bound(i, dh)
}

// Filter screens a whole candidate list in place, one call per (query,
// panel) pair: it drops every lid l with UB(l)·lens[l] < cut, moves the
// others to the front of lids in their original order and returns how
// many it kept. lens is indexed by lid and holds nonnegative row lengths;
// cut is the caller's emit-order cutoff. When heads is non-nil, heads[j]
// receives kept row j's head dot, for FinishApproxBound. The AVX2 kernel
// runs where the CPU has it, the portable screen8 loop elsewhere; both
// keep exactly the same rows (see the package comment). Filter panics when
// a lid is outside the panel, lens is shorter than the panel or heads
// shorter than lids (programming errors).
func (s *Screen) Filter(lids []int32, lens []float64, cut float64, heads []int32) int {
	qr := s.qr
	if len(lens) < qr.n || (heads != nil && len(heads) < len(lids)) {
		panic("quant: Filter lens or heads shorter than required")
	}
	for _, l := range lids {
		if uint(l) >= uint(qr.n) {
			panic("quant: Filter row index out of range")
		}
	}
	if kept, ok := s.filterAsm(lids, lens, cut, heads); ok {
		return kept
	}
	k := 0
	i := 0
	var dh [8]int32
	var l8 [8]float64
	for ; i+8 <= len(lids); i += 8 {
		c := *(*[8]int32)(lids[i : i+8])
		for j, l := range c {
			l8[j] = lens[l]
		}
		mask := s.screen8(int(c[0]), int(c[1]), int(c[2]), int(c[3]),
			int(c[4]), int(c[5]), int(c[6]), int(c[7]), &l8, cut, &dh)
		for m := mask; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(m)
			if heads != nil {
				heads[k] = dh[j]
			}
			lids[k] = c[j]
			k++
		}
	}
	for ; i < len(lids); i++ {
		l := int(lids[i])
		dh := DotQ8(s.codes, qr.Codes[l*qr.r:l*qr.r+qr.head])
		if s.keep(l, dh, lens[l], cut) == 1 {
			if heads != nil {
				heads[k] = dh
			}
			lids[k] = lids[i]
			k++
		}
	}
	return k
}

// screen8 is the portable Filter's eight-row step: it evaluates the
// checkpoint for eight rows and applies the caller's cutoff predicate in
// one pass, returning a survivor bitmask (bit j set = row ij must be
// verified) and the head dots. Row j is screened exactly when
// bound(ij)·lens[j] < cut — the same outcome as UB followed by the
// multiply in the caller, with the intermediate bound and its per-row
// branch elided; in the common case the mask is zero or one bit, so the
// caller touches survivors only. The head dot pays a sign extension per
// element on top of the multiply-add, so eight rows share each query
// load.
func (s *Screen) screen8(i0, i1, i2, i3, i4, i5, i6, i7 int, lens *[8]float64, cut float64, head *[8]int32) uint8 {
	qr := s.qr
	h, r := qr.head, qr.r
	q := s.codes
	p0 := qr.Codes[i0*r : i0*r+h]
	p1 := qr.Codes[i1*r : i1*r+h]
	p2 := qr.Codes[i2*r : i2*r+h]
	p3 := qr.Codes[i3*r : i3*r+h]
	p4 := qr.Codes[i4*r : i4*r+h]
	p5 := qr.Codes[i5*r : i5*r+h]
	p6 := qr.Codes[i6*r : i6*r+h]
	p7 := qr.Codes[i7*r : i7*r+h]
	p0, p1, p2, p3 = p0[:len(q)], p1[:len(q)], p2[:len(q)], p3[:len(q)]
	p4, p5, p6, p7 = p4[:len(q)], p5[:len(q)], p6[:len(q)], p7[:len(q)]
	var s0, s1, s2, s3, s4, s5, s6, s7 int32
	k := 0
	for ; k+2 <= len(q); k += 2 {
		qa, qb := int32(q[k]), int32(q[k+1])
		s0 += qa*int32(p0[k]) + qb*int32(p0[k+1])
		s1 += qa*int32(p1[k]) + qb*int32(p1[k+1])
		s2 += qa*int32(p2[k]) + qb*int32(p2[k+1])
		s3 += qa*int32(p3[k]) + qb*int32(p3[k+1])
		s4 += qa*int32(p4[k]) + qb*int32(p4[k+1])
		s5 += qa*int32(p5[k]) + qb*int32(p5[k+1])
		s6 += qa*int32(p6[k]) + qb*int32(p6[k+1])
		s7 += qa*int32(p7[k]) + qb*int32(p7[k+1])
	}
	if k < len(q) {
		qc := int32(q[k])
		s0 += qc * int32(p0[k])
		s1 += qc * int32(p1[k])
		s2 += qc * int32(p2[k])
		s3 += qc * int32(p3[k])
		s4 += qc * int32(p4[k])
		s5 += qc * int32(p5[k])
		s6 += qc * int32(p6[k])
		s7 += qc * int32(p7[k])
	}
	head[0], head[1], head[2], head[3] = s0, s1, s2, s3
	head[4], head[5], head[6], head[7] = s4, s5, s6, s7
	var mask uint8
	mask |= s.keep(i0, s0, lens[0], cut) << 0
	mask |= s.keep(i1, s1, lens[1], cut) << 1
	mask |= s.keep(i2, s2, lens[2], cut) << 2
	mask |= s.keep(i3, s3, lens[3], cut) << 3
	mask |= s.keep(i4, s4, lens[4], cut) << 4
	mask |= s.keep(i5, s5, lens[5], cut) << 5
	mask |= s.keep(i6, s6, lens[6], cut) << 6
	mask |= s.keep(i7, s7, lens[7], cut) << 7
	return mask
}

// keep reports (as 0 or 1) whether row i survives the checkpoint predicate
// bound(i)·len < cut. Bit-identical in outcome to bound followed by the
// caller-side multiply: the −Inf pole bound redirects to +Inf always
// survives here too (first comparison fails), and a NaN anywhere makes the
// second comparison fail — conservatively surviving.
func (s *Screen) keep(i int, dh int32, len, cut float64) uint8 {
	qr := s.qr
	ub := s.qs*qr.screen[2*i]*float64(dh) + s.qsqtn*qr.screen[2*i+1] + s.resid
	if ub >= -math.MaxFloat64 && ub*len < cut {
		return 0
	}
	return 1
}

// bound assembles the checkpoint upper bound from a head dot: two short
// independent multiply chains (scales are nonnegative, so the sign of the
// integer sum survives) joined by two adds; tiny, folded into resid,
// absorbs underflow absolutely, and NaN remaining-mass sentinels poison
// non-finite rows to +Inf.
func (s *Screen) bound(i int, dh int32) float64 {
	qr := s.qr
	ub := s.qs*qr.screen[2*i]*float64(dh) + s.qsqtn*qr.screen[2*i+1] + s.resid
	if !(ub >= -math.MaxFloat64) {
		// NaN or −Inf: never screen.
		return math.Inf(1)
	}
	return ub
}

// FinishApproxBound completes a checkpoint survivor: given the head dot
// ScreenBound returned, it dots the remaining dimensions and evaluates the
// full bracket. The result is identical to ApproxBound(qq, i) — integer
// addition is grouping-insensitive, and the bound arithmetic is shared.
func (qr *Rows) FinishApproxBound(qq Query, i int, head int32) (approx, bound float64) {
	h := qr.head
	d := head + DotQ8(qq.Codes[h:], qr.Codes[i*qr.r+h:(i+1)*qr.r])
	return qr.boundFromDot(qq, i, float64(d))
}
