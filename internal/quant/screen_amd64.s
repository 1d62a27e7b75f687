#include "textflag.h"

// −MaxFloat64, the lower edge of the checkpoint's first comparison.
DATA negmax<>+0(SB)/8, $0xffefffffffffffff
GLOBL negmax<>(SB), RODATA|NOPTR, $8

// func screenAVX2(lids []int32, codes []int8, r int, q []int8, screen, lens []float64, qs, qsqtn, resid, cut float64, heads []int32) int
//
// The whole-list checkpoint screen, four candidates per pass. For each lid
// it computes the head dot dh = Σ_{k<len(q)} q[k]·codes[lid*r+k] (VPMOVSXBW
// and VPMADDWD over 16-element chunks, reduced with VPHADDD; the last
// len(q) mod 16 elements one at a time — integer sums, so the grouping
// cannot change them) and then, in Screen.keep's operation order with one
// rounding per operation and no FMA,
//
//	ub = ((qs·sc0)·dh + qsqtn·sc1) + resid,  sc0, sc1 = screen[2·lid], screen[2·lid+1]
//
// and drops the candidate exactly when ub ≥ −MaxFloat64 and ub·lens[lid] <
// cut, both ordered comparisons, so a NaN anywhere keeps it. Kept lids are
// compacted in place to the front of lids (and their head dots written to
// heads, when heads is non-empty); the count kept is returned. A short last
// group repeats its first lid in the empty lanes and compacts only the
// real ones.
//
// Frame: 0(SP) holds the group's four lids, 16(SP) their head dots.
// Registers: DI lids, SI next group, R13 kept count, BX codes, CX r,
// DX q, R12 the head's 16-element prefix in bytes, R14 the head length,
// R8-R11 the four code rows; Y10-Y14 the broadcast constants.
TEXT ·screenAVX2(SB), NOSPLIT, $32-192
	MOVQ lids_base+0(FP), DI
	MOVQ codes_base+24(FP), BX
	MOVQ r+48(FP), CX
	MOVQ q_base+56(FP), DX
	MOVQ q_len+64(FP), R14
	MOVQ R14, R12
	ANDQ $-16, R12
	VBROADCASTSD negmax<>(SB), Y10
	VBROADCASTSD cut+152(FP), Y11
	VBROADCASTSD qs+128(FP), Y12
	VBROADCASTSD qsqtn+136(FP), Y13
	VBROADCASTSD resid+144(FP), Y14
	XORQ SI, SI
	XORQ R13, R13

group:
	MOVQ lids_len+8(FP), AX
	SUBQ SI, AX
	JLE  done
	MOVLQSX (DI)(SI*4), R8
	MOVQ    R8, R9
	MOVQ    R8, R10
	MOVQ    R8, R11
	CMPQ    AX, $2
	JLT     lidsready
	MOVLQSX 4(DI)(SI*4), R9
	CMPQ    AX, $3
	JLT     lidsready
	MOVLQSX 8(DI)(SI*4), R10
	CMPQ    AX, $4
	JLT     lidsready
	MOVLQSX 12(DI)(SI*4), R11

lidsready:
	MOVL  R8, 0(SP)
	MOVL  R9, 4(SP)
	MOVL  R10, 8(SP)
	MOVL  R11, 12(SP)
	IMULQ CX, R8
	ADDQ  BX, R8
	IMULQ CX, R9
	ADDQ  BX, R9
	IMULQ CX, R10
	ADDQ  BX, R10
	IMULQ CX, R11
	ADDQ  BX, R11
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  AX, AX

chunk:
	CMPQ      AX, R12
	JGE       reduce
	VPMOVSXBW (DX)(AX*1), Y0
	VPMOVSXBW (R8)(AX*1), Y1
	VPMADDWD  Y1, Y0, Y1
	VPADDD    Y1, Y4, Y4
	VPMOVSXBW (R9)(AX*1), Y2
	VPMADDWD  Y2, Y0, Y2
	VPADDD    Y2, Y5, Y5
	VPMOVSXBW (R10)(AX*1), Y3
	VPMADDWD  Y3, Y0, Y3
	VPADDD    Y3, Y6, Y6
	VPMOVSXBW (R11)(AX*1), Y1
	VPMADDWD  Y1, Y0, Y1
	VPADDD    Y1, Y7, Y7
	ADDQ      $16, AX
	JMP       chunk

reduce:
	// Y4..Y7 hold eight partial sums per row; two horizontal-add rounds
	// and a fold of the upper half leave X4 = [dh0 dh1 dh2 dh3].
	VPHADDD      Y5, Y4, Y4
	VPHADDD      Y7, Y6, Y6
	VPHADDD      Y6, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD       X5, X4, X4

headtail:
	// The head's last len(q) mod 16 elements: one product per row in
	// general registers, inserted as a vector [p0 p1 p2 p3]·q[k].
	CMPQ     AX, R14
	JGE      bound
	MOVBLSX  (DX)(AX*1), BX
	MOVBLSX  (R8)(AX*1), CX
	IMULL    BX, CX
	VMOVD    CX, X1
	MOVBLSX  (R9)(AX*1), CX
	IMULL    BX, CX
	VPINSRD  $1, CX, X1, X1
	MOVBLSX  (R10)(AX*1), CX
	IMULL    BX, CX
	VPINSRD  $2, CX, X1, X1
	MOVBLSX  (R11)(AX*1), CX
	IMULL    BX, CX
	VPINSRD  $3, CX, X1, X1
	VPADDD   X1, X4, X4
	INCQ     AX
	JMP      headtail

bound:
	MOVQ     codes_base+24(FP), BX
	MOVQ     r+48(FP), CX
	VMOVDQU  X4, 16(SP)
	VCVTDQ2PD X4, Y4

	// Y1 = [sc0 sc1] pairs of rows A and C, Y2 of rows B and D; the
	// in-lane unpacks give Y3 = sc0 and Y1 = sc1 in row order.
	MOVQ        screen_base+80(FP), AX
	MOVLQSX     0(SP), R8
	SHLQ        $4, R8
	VMOVUPD     (AX)(R8*1), X1
	MOVLQSX     8(SP), R8
	SHLQ        $4, R8
	VINSERTF128 $1, (AX)(R8*1), Y1, Y1
	MOVLQSX     4(SP), R8
	SHLQ        $4, R8
	VMOVUPD     (AX)(R8*1), X2
	MOVLQSX     12(SP), R8
	SHLQ        $4, R8
	VINSERTF128 $1, (AX)(R8*1), Y2, Y2
	VUNPCKLPD   Y2, Y1, Y3
	VUNPCKHPD   Y2, Y1, Y1

	MOVQ        lens_base+104(FP), AX
	MOVLQSX     0(SP), R8
	VMOVSD      (AX)(R8*8), X5
	MOVLQSX     4(SP), R8
	VMOVHPD     (AX)(R8*8), X5, X5
	MOVLQSX     8(SP), R8
	VMOVSD      (AX)(R8*8), X6
	MOVLQSX     12(SP), R8
	VMOVHPD     (AX)(R8*8), X6, X6
	VINSERTF128 $1, X6, Y5, Y5

	VMULPD    Y12, Y3, Y3
	VMULPD    Y4, Y3, Y3
	VMULPD    Y13, Y1, Y1
	VADDPD    Y1, Y3, Y3
	VADDPD    Y14, Y3, Y3
	VCMPPD    $0x1d, Y10, Y3, Y6
	VMULPD    Y5, Y3, Y3
	VCMPPD    $0x11, Y11, Y3, Y7
	VANDPD    Y7, Y6, Y6
	VMOVMSKPD Y6, AX

	// Compact the group's real lanes: lane j's lid (and head dot) goes to
	// position R13, which advances when bit j of AX (dropped) is clear.
	MOVQ lids_len+8(FP), R10
	SUBQ SI, R10
	CMPQ R10, $4
	JLE  lanes
	MOVQ $4, R10

lanes:
	MOVQ heads_base+160(FP), R9
	XORQ R8, R8

lane:
	MOVL  0(SP)(R8*4), R11
	MOVL  R11, (DI)(R13*4)
	TESTQ R9, R9
	JZ    nohead
	MOVL  16(SP)(R8*4), R11
	MOVL  R11, (R9)(R13*4)

nohead:
	BTQ   R8, AX
	CMC
	ADCQ  $0, R13
	INCQ  R8
	CMPQ  R8, R10
	JLT   lane
	ADDQ  R10, SI
	JMP   group

done:
	MOVQ R13, ret+184(FP)
	VZEROUPPER
	RET
