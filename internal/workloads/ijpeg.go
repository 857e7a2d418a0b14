package workloads

import "fmt"

// ijpeg: dense integer 8-wide butterfly transform over a small buffer —
// the tight, regular, high-ILP loop structure of JPEG's DCT. The paper
// singles ijpeg out as the benchmark whose single hot loop lets large
// blocks capture several iterations at once.

const (
	ijpegWords  = 8192 // 1024 rows of 8: the image exceeds the Data Cache
	ijpegPasses = 8
	ijpegSeed   = 0x2545F491
)

// ijpegModel mirrors the assembly kernel exactly.
func ijpegModel() uint32 {
	buf := make([]uint32, ijpegWords)
	x := uint32(ijpegSeed)
	for i := range buf {
		x = xorshift32(x)
		buf[i] = x
	}
	sra := func(v uint32, n uint) uint32 { return uint32(int32(v) >> n) }
	for p := 0; p < ijpegPasses; p++ {
		for r := 0; r < ijpegWords; r += 8 {
			a := buf[r : r+8]
			s0, s1, s2, s3 := a[0]+a[7], a[1]+a[6], a[2]+a[5], a[3]+a[4]
			d0, d1, d2, d3 := a[0]-a[7], a[1]-a[6], a[2]-a[5], a[3]-a[4]
			t0, t1, t2, t3 := s0+s3, s1+s2, s0-s3, s1-s2
			a[0] = t0 + t1
			a[1] = t0 - t1
			a[2] = t2 + sra(t3, 1)
			a[3] = t2 - sra(t3, 1)
			a[4] = d0 + sra(d1, 2)
			a[5] = d2 - sra(d3, 2)
			a[6] = d1 + sra(d2, 1)
			a[7] = d3 - sra(d0, 3)
		}
	}
	var sum uint32
	for _, v := range buf {
		sum += v
	}
	return sum
}

var ijpegSource = fmt.Sprintf(`
	.data 0x40000
buf:	.space %d
	.text 0x1000
start:
	set buf, %%g5
	set %#x, %%g1        ! xorshift state
	set %d, %%g7         ! buffer size in bytes (exceeds simm13)
	mov 0, %%g2          ! fill index (bytes)
fill:
	sll %%g1, 13, %%g3   ! xorshift32
	xor %%g1, %%g3, %%g1
	srl %%g1, 17, %%g3
	xor %%g1, %%g3, %%g1
	sll %%g1, 5, %%g3
	xor %%g1, %%g3, %%g1
	st %%g1, [%%g5+%%g2]
	add %%g2, 4, %%g2
	cmp %%g2, %%g7
	bl fill

	mov %d, %%g4         ! pass counter
pass:
	mov 0, %%g2          ! row base (bytes)
row:
	add %%g5, %%g2, %%g6
	ld [%%g6], %%l0
	ld [%%g6+4], %%l1
	ld [%%g6+8], %%l2
	ld [%%g6+12], %%l3
	ld [%%g6+16], %%l4
	ld [%%g6+20], %%l5
	ld [%%g6+24], %%l6
	ld [%%g6+28], %%l7
	add %%l0, %%l7, %%o0   ! s0
	add %%l1, %%l6, %%o1   ! s1
	add %%l2, %%l5, %%o2   ! s2
	add %%l3, %%l4, %%o3   ! s3
	sub %%l0, %%l7, %%o4   ! d0
	sub %%l1, %%l6, %%o5   ! d1
	sub %%l2, %%l5, %%i0   ! d2
	sub %%l3, %%l4, %%i1   ! d3
	add %%o0, %%o3, %%i2   ! t0
	add %%o1, %%o2, %%i3   ! t1
	sub %%o0, %%o3, %%i4   ! t2
	sub %%o1, %%o2, %%i5   ! t3
	add %%i2, %%i3, %%l0
	sub %%i2, %%i3, %%l1
	sra %%i5, 1, %%g3
	add %%i4, %%g3, %%l2
	sub %%i4, %%g3, %%l3
	sra %%o5, 2, %%g3
	add %%o4, %%g3, %%l4
	sra %%i1, 2, %%g3
	sub %%i0, %%g3, %%l5
	sra %%i0, 1, %%g3
	add %%o5, %%g3, %%l6
	sra %%o4, 3, %%g3
	sub %%i1, %%g3, %%l7
	st %%l0, [%%g6]
	st %%l1, [%%g6+4]
	st %%l2, [%%g6+8]
	st %%l3, [%%g6+12]
	st %%l4, [%%g6+16]
	st %%l5, [%%g6+20]
	st %%l6, [%%g6+24]
	st %%l7, [%%g6+28]
	add %%g2, 32, %%g2
	cmp %%g2, %%g7
	bl row
	subcc %%g4, 1, %%g4
	bg pass

	mov 0, %%o0          ! checksum
	mov 0, %%g2
sum:
	ld [%%g5+%%g2], %%g3
	add %%o0, %%g3, %%o0
	add %%g2, 4, %%g2
	cmp %%g2, %%g7
	bl sum
	ta 0
`, ijpegWords*4, ijpegSeed, ijpegWords*4, ijpegPasses)

var ijpeg = &Workload{
	Name:        "ijpeg",
	Description: "dense 8-wide integer butterfly transform (DCT-like hot loop)",
	Input:       "vigo.ppm -GO",
	Source:      ijpegSource,
	Validate:    expectExit("ijpeg", ijpegModel()),
}
