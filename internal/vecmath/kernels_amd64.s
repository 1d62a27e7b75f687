#include "textflag.h"

// func dotRowsAVX2(q, rows []float64, lids []int32, out []float64)
//
// out[i] = Dot(q, row_i), where row_i is rows[lids[i]*r:][:r] when lids is
// non-empty and rows[i*r:][:r] otherwise (r = len(q)). Four rows run side
// by side, one YMM lane per row. Per group of four elements each lane adds
// ((q0·p0 + q1·p1) + q2·p2) + q3·p3 into its sum, then the r mod 4 tail
// elements one at a time — vecmath.Dot's order, with separate VMULPD and
// VADDPD roundings (no FMA), so every lane is bit-identical to Dot. A short
// last group repeats its first row in the empty lanes and stores only the
// real ones.
//
// Register use: SI q, BX rows, DI lids, R12 len(lids) (0: contiguous),
// DX out, R13 rows left, R14 row stride in bytes, CX the vectorised
// element prefix (r &^ 3) in bytes, R8-R11 the four row pointers, AX the
// element offset. Y0 holds the four sums.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-96
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ rows_base+24(FP), BX
	MOVQ lids_base+48(FP), DI
	MOVQ lids_len+56(FP), R12
	MOVQ out_base+72(FP), DX
	MOVQ out_len+80(FP), R13
	MOVQ CX, R14
	SHLQ $3, R14
	ANDQ $-4, CX
	SHLQ $3, CX

group:
	TESTQ R13, R13
	JZ    done
	TESTQ R12, R12
	JZ    contiguous
	MOVLQSX (DI), R8
	IMULQ   R14, R8
	ADDQ    BX, R8
	MOVQ    R8, R9
	MOVQ    R8, R10
	MOVQ    R8, R11
	CMPQ    R13, $2
	JLT     rowsready
	MOVLQSX 4(DI), R9
	IMULQ   R14, R9
	ADDQ    BX, R9
	CMPQ    R13, $3
	JLT     rowsready
	MOVLQSX 8(DI), R10
	IMULQ   R14, R10
	ADDQ    BX, R10
	CMPQ    R13, $4
	JLT     rowsready
	MOVLQSX 12(DI), R11
	IMULQ   R14, R11
	ADDQ    BX, R11
	JMP     rowsready

contiguous:
	MOVQ BX, R8
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	CMPQ R13, $2
	JLT  rowsready
	LEAQ (R8)(R14*1), R9
	CMPQ R13, $3
	JLT  rowsready
	LEAQ (R9)(R14*1), R10
	CMPQ R13, $4
	JLT  rowsready
	LEAQ (R10)(R14*1), R11

rowsready:
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    tail

quad:
	// Y1..Y4 = [A0 A1 | C0 C1], [B0 B1 | D0 D1], [A2 A3 | C2 C3],
	// [B2 B3 | D2 D3] for rows A..D (R8..R11); the in-lane unpacks turn
	// them into one vector per element, lanes in row order.
	VMOVUPD     (R8)(AX*1), X1
	VINSERTF128 $1, (R10)(AX*1), Y1, Y1
	VMOVUPD     (R9)(AX*1), X2
	VINSERTF128 $1, (R11)(AX*1), Y2, Y2
	VMOVUPD     16(R8)(AX*1), X3
	VINSERTF128 $1, 16(R10)(AX*1), Y3, Y3
	VMOVUPD     16(R9)(AX*1), X4
	VINSERTF128 $1, 16(R11)(AX*1), Y4, Y4
	VUNPCKLPD   Y2, Y1, Y5
	VUNPCKHPD   Y2, Y1, Y6
	VUNPCKLPD   Y4, Y3, Y7
	VUNPCKHPD   Y4, Y3, Y8
	VBROADCASTSD (SI)(AX*1), Y9
	VMULPD       Y9, Y5, Y5
	VBROADCASTSD 8(SI)(AX*1), Y10
	VMULPD       Y10, Y6, Y6
	VADDPD       Y6, Y5, Y5
	VBROADCASTSD 16(SI)(AX*1), Y11
	VMULPD       Y11, Y7, Y7
	VADDPD       Y7, Y5, Y5
	VBROADCASTSD 24(SI)(AX*1), Y12
	VMULPD       Y12, Y8, Y8
	VADDPD       Y8, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $32, AX
	CMPQ         AX, CX
	JLT          quad

tail:
	CMPQ         AX, R14
	JGE          store
	VMOVSD       (R8)(AX*1), X1
	VMOVHPD      (R9)(AX*1), X1, X1
	VMOVSD       (R10)(AX*1), X2
	VMOVHPD      (R11)(AX*1), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VBROADCASTSD (SI)(AX*1), Y9
	VMULPD       Y9, Y1, Y1
	VADDPD       Y1, Y0, Y0
	ADDQ         $8, AX
	JMP          tail

store:
	CMPQ    R13, $4
	JLT     partial
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	SUBQ    $4, R13
	ADDQ    $16, DI
	LEAQ    (BX)(R14*4), R8
	TESTQ   R12, R12
	CMOVQEQ R8, BX
	JMP     group

partial:
	VMOVSD       X0, (DX)
	CMPQ         R13, $2
	JLT          done
	VMOVHPD      X0, 8(DX)
	CMPQ         R13, $3
	JLT          done
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X1, 16(DX)

done:
	VZEROUPPER
	RET
