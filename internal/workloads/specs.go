package workloads

// The application table. Sizes follow the suites' standard large datasets
// (Polybench 4096x4096 FP32 matrices = 64 MiB, Rodinia defaults); launch
// counts follow the paper where stated (dwt2d 10, 3dconv 254, sc 1611,
// 2mm 2, 3mm/atax/bicg/corr 2-4). FLOPs and HBM bytes per launch set each
// kernel's roofline time; `grid` saturates the 132-SM device so occupancy
// does not distort the suite unless a spec says otherwise.

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

// saturating grid: 132 SMs x 2048 threads.
const (
	grid = 2048
	tpb  = 256
)

// All returns every application spec, in the display order of Figs. 5-9.
// Each call builds the specs afresh, so the caller owns them.
func All() []Spec {
	return []Spec{
		// --- Polybench ---
		{
			Name: "2dconv", Suite: "polybench", Pinned: true, UVMCapable: true,
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib, HostRounds: 2,
			Phases: []phase{{name: "conv2d", count: 1, flops: 1.5e8, mem: 1536 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "3dconv", Suite: "polybench", Pinned: true, UVMCapable: true,
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "conv3d", count: 254, flops: 1.2e6, mem: 512 * kib, blocks: grid, tpb: tpb, touch: 512 * kib, advance: true}},
		},
		{
			Name: "2mm", Suite: "polybench",
			Buffers: []int64{16 * mib, 16 * mib, 16 * mib, 16 * mib}, Out: 16 * mib,
			Phases: []phase{
				{name: "mm1", count: 1, flops: 3.4e10, mem: 48 * mib, blocks: grid, tpb: tpb},
				{name: "mm2", count: 1, flops: 3.4e10, mem: 48 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "3mm", Suite: "polybench",
			Buffers: []int64{16 * mib, 16 * mib, 16 * mib, 16 * mib, 16 * mib}, Out: 16 * mib,
			Phases: []phase{
				{name: "mm1", count: 1, flops: 3.4e10, mem: 48 * mib, blocks: grid, tpb: tpb},
				{name: "mm2", count: 1, flops: 3.4e10, mem: 48 * mib, blocks: grid, tpb: tpb},
				{name: "mm3", count: 1, flops: 3.4e10, mem: 48 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "atax", Suite: "polybench",
			Buffers: []int64{64 * mib, 32 * kib, 32 * kib}, Out: 32 * kib,
			Phases: []phase{
				{name: "ataxK1", count: 1, flops: 3.3e7, mem: 64 * mib, blocks: grid, tpb: tpb},
				{name: "ataxK2", count: 1, flops: 3.3e7, mem: 64 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "bicg", Suite: "polybench",
			Buffers: []int64{64 * mib, 32 * kib, 32 * kib, 32 * kib}, Out: 32 * kib,
			Phases: []phase{
				{name: "bicgK1", count: 1, flops: 3.3e7, mem: 64 * mib, blocks: grid, tpb: tpb},
				{name: "bicgK2", count: 1, flops: 3.3e7, mem: 64 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "mvt", Suite: "polybench",
			Buffers: []int64{64 * mib, 64 * kib}, Out: 64 * kib,
			Phases: []phase{
				{name: "mvt1", count: 1, flops: 3.3e7, mem: 64 * mib, blocks: grid, tpb: tpb},
				{name: "mvt2", count: 1, flops: 3.3e7, mem: 64 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "gesummv", Suite: "polybench",
			Buffers: []int64{64 * mib, 64 * mib, 64 * kib}, Out: 64 * kib,
			Phases: []phase{{name: "gesummv", count: 2, flops: 6.7e7, mem: 128 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "gemm", Suite: "polybench",
			Buffers: []int64{64 * mib, 64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "gemm", count: 1, flops: 1.37e11, mem: 192 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "corr", Suite: "polybench",
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "corrMean", count: 1, flops: 1.7e7, mem: 64 * mib, blocks: grid, tpb: tpb},
				{name: "corrStd", count: 1, flops: 3.3e7, mem: 64 * mib, blocks: grid, tpb: tpb},
				{name: "corrReduce", count: 1, flops: 1.7e7, mem: 64 * mib, blocks: grid, tpb: tpb},
				{name: "corrCorr", count: 1, flops: 6.9e10, mem: 128 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "covar", Suite: "polybench",
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "covarMean", count: 1, flops: 1.7e7, mem: 64 * mib, blocks: grid, tpb: tpb},
				{name: "covarReduce", count: 1, flops: 1.7e7, mem: 64 * mib, blocks: grid, tpb: tpb},
				{name: "covarCovar", count: 1, flops: 6.9e10, mem: 128 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "gramschm", Suite: "polybench", UVMCapable: true,
			Buffers: []int64{32 * mib, 32 * mib, 32 * mib}, Out: 32 * mib,
			Phases: []phase{
				{name: "gsNorm", count: 512, flops: 2e7, mem: 256 * kib, blocks: 264, tpb: tpb, touch: 256 * kib},
				{name: "gsQ", count: 512, flops: 2e7, mem: 256 * kib, blocks: 264, tpb: tpb, touch: 256 * kib},
				{name: "gsR", count: 512, flops: 2e7, mem: 256 * kib, blocks: 264, tpb: tpb, touch: 256 * kib},
			},
		},
		{
			Name: "syrk", Suite: "polybench",
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "syrk", count: 1, flops: 6.9e10, mem: 128 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "syr2k", Suite: "polybench",
			Buffers: []int64{64 * mib, 64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "syr2k", count: 1, flops: 1.37e11, mem: 192 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "fdtd2d", Suite: "polybench", Pinned: true,
			Buffers: []int64{64 * mib, 64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "fdtdEx", count: 120, flops: 5e7, mem: 2 * mib, blocks: grid, tpb: tpb},
				{name: "fdtdEy", count: 120, flops: 5e7, mem: 2 * mib, blocks: grid, tpb: tpb},
				{name: "fdtdHz", count: 120, flops: 5e7, mem: 2 * mib, blocks: grid, tpb: tpb},
			},
		},

		// --- Rodinia ---
		{
			Name: "backprop", Suite: "rodinia", Pinned: true, UVMCapable: true,
			Buffers: []int64{64 * mib, 16 * mib, mib}, Out: mib,
			Phases: []phase{
				{name: "bpForward", count: 2, flops: 4e7, mem: 400 * mib, blocks: grid, tpb: tpb},
				{name: "bpAdjust", count: 2, flops: 4e7, mem: 400 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "bfs", Suite: "rodinia", UVMCapable: true,
			Buffers: []int64{128 * mib, 32 * mib}, Out: 32 * mib,
			Phases: []phase{
				{name: "bfsK1", count: 24, flops: 1e6, mem: 200 * mib, blocks: grid, tpb: tpb, touch: 8 * mib, random: true, advance: true},
				{name: "bfsK2", count: 24, flops: 1e6, mem: 200 * mib, blocks: grid, tpb: tpb, touch: 8 * mib, random: true, advance: true},
			},
		},
		{
			Name: "dwt2d", Suite: "rodinia",
			Buffers: []int64{32 * mib, 32 * mib}, Out: 32 * mib,
			Phases: []phase{
				{name: "dwtFwd", count: 2, flops: 2e7, mem: 16 * mib, blocks: grid, tpb: tpb},
				{name: "dwtVert", count: 2, flops: 2e7, mem: 16 * mib, blocks: grid, tpb: tpb},
				{name: "dwtHorz", count: 2, flops: 2e7, mem: 16 * mib, blocks: grid, tpb: tpb},
				{name: "dwtQuant", count: 2, flops: 2e7, mem: 16 * mib, blocks: grid, tpb: tpb},
				{name: "dwtPack", count: 2, flops: 2e7, mem: 16 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "gaussian", Suite: "rodinia",
			Buffers: []int64{16 * mib, 16 * mib}, Out: 16 * mib,
			Phases: []phase{
				{name: "gaussFan1", count: 512, flops: 2e5, mem: 64 * kib, blocks: 16, tpb: tpb},
				{name: "gaussFan2", count: 512, flops: 4e5, mem: 128 * kib, blocks: 64, tpb: tpb},
			},
		},
		{
			Name: "hotspot", Suite: "rodinia", Pinned: true,
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "hotspot", count: 60, flops: 8e7, mem: 128 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "kmeans", Suite: "rodinia", Pinned: true, UVMCapable: true,
			Buffers: []int64{128 * mib, mib}, Out: mib,
			Phases: []phase{
				{name: "kmeansMap", count: 10, flops: 2e8, mem: 500 * mib, blocks: grid, tpb: tpb},
				{name: "kmeansReduce", count: 10, flops: 1e6, mem: mib, blocks: 64, tpb: tpb, touch: mib},
			},
		},
		{
			Name: "lud", Suite: "rodinia",
			Buffers: []int64{64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "ludDiag", count: 86, flops: 1e6, mem: 256 * kib, blocks: 8, tpb: tpb},
				{name: "ludPerim", count: 86, flops: 8e6, mem: 2 * mib, blocks: 128, tpb: tpb},
				{name: "ludInternal", count: 86, flops: 4e9, mem: 200 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "nw", Suite: "rodinia",
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "nwFwd", count: 255, flops: 5e5, mem: 512 * kib, blocks: 128, tpb: tpb},
				{name: "nwBack", count: 255, flops: 5e5, mem: 512 * kib, blocks: 128, tpb: tpb},
			},
		},
		{
			Name: "pathfinder", Suite: "rodinia",
			Buffers: []int64{80 * mib}, Out: mib,
			Phases: []phase{{name: "pathfinder", count: 100, flops: 2e6, mem: 1600 * kib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "sc", Suite: "rodinia",
			Buffers: []int64{16 * mib, 16 * mib}, Out: 16 * mib,
			Phases: []phase{
				{name: "scDist", count: 1200, flops: 2e6, mem: mib, blocks: 264, tpb: tpb},
				{name: "scGain", count: 400, flops: 2e6, mem: mib, blocks: 264, tpb: tpb},
				{name: "scSwap", count: 11, flops: 2e6, mem: mib, blocks: 264, tpb: tpb},
			},
		},
		{
			Name: "srad", Suite: "rodinia", UVMCapable: true,
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "srad1", count: 100, flops: 3e9, mem: 1900 * mib, blocks: grid, tpb: tpb, touch: 8 * mib},
				{name: "srad2", count: 100, flops: 3e9, mem: 1900 * mib, blocks: grid, tpb: tpb, touch: 8 * mib},
			},
		},

		// --- UVMBench ---
		{
			Name: "cnn", Suite: "uvmbench", UVMCapable: true,
			Buffers: []int64{mib, mib}, Out: mib, D2DBytes: 2 * gib,
			Phases: []phase{
				{name: "cnnConv1", count: 1, flops: 6e10, mem: 200 * mib, blocks: grid, tpb: tpb},
				{name: "cnnConv2", count: 1, flops: 6e10, mem: 200 * mib, blocks: grid, tpb: tpb},
				{name: "cnnPool", count: 1, flops: 1e9, mem: 50 * mib, blocks: grid, tpb: tpb},
				{name: "cnnFC", count: 1, flops: 2e10, mem: 100 * mib, blocks: grid, tpb: tpb},
			},
		},

		// --- GraphBIG ---
		{
			Name: "gb-bfs", Suite: "graphbig", UVMCapable: true,
			Buffers: []int64{256 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "gbBfs", count: 30, flops: 2e6, mem: 320 * mib, blocks: grid, tpb: tpb, touch: 12 * mib, random: true, advance: true}},
		},
		{
			Name: "gb-sssp", Suite: "graphbig", UVMCapable: true,
			Buffers: []int64{256 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "gbSssp", count: 45, flops: 3e6, mem: 320 * mib, blocks: grid, tpb: tpb, touch: 12 * mib, random: true, advance: true}},
		},
		{
			Name: "gb-pagerank", Suite: "graphbig", UVMCapable: true,
			Buffers: []int64{256 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "gbPagerank", count: 20, flops: 8e7, mem: 420 * mib, blocks: grid, tpb: tpb, touch: 40 * mib, advance: true}},
		},
		{
			Name: "gb-cc", Suite: "graphbig",
			Buffers: []int64{256 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "gbCcHook", count: 28, flops: 2e6, mem: 12 * mib, blocks: grid, tpb: tpb},
				{name: "gbCcJump", count: 28, flops: 1e6, mem: 6 * mib, blocks: grid, tpb: tpb},
			},
		},

		// --- additional Rodinia applications ---
		{
			Name: "nn", Suite: "rodinia",
			Buffers: []int64{48 * mib, 64 * kib}, Out: 64 * kib,
			Phases: []phase{{name: "nnFind", count: 1, flops: 1.2e7, mem: 48 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "particlefilter", Suite: "rodinia",
			Buffers: []int64{32 * mib, 8 * mib}, Out: 8 * mib,
			Phases: []phase{
				{name: "pfLikelihood", count: 40, flops: 4e7, mem: 40 * mib, blocks: grid, tpb: tpb},
				{name: "pfNormalize", count: 40, flops: 2e6, mem: 8 * mib, blocks: 264, tpb: tpb},
				{name: "pfResample", count: 40, flops: 4e6, mem: 16 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "lavamd", Suite: "rodinia",
			Buffers: []int64{96 * mib, 24 * mib}, Out: 24 * mib,
			Phases: []phase{{name: "lavaKernel", count: 1, flops: 1.9e11, mem: 480 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "myocyte", Suite: "rodinia",
			Buffers: []int64{4 * mib, 4 * mib}, Out: 4 * mib,
			Phases: []phase{{name: "myocyteSolver", count: 380, flops: 6e6, mem: mib, blocks: 64, tpb: tpb}},
		},
		{
			Name: "btree", Suite: "rodinia", UVMCapable: true,
			Buffers: []int64{192 * mib, 16 * mib}, Out: 16 * mib,
			Phases: []phase{
				{name: "btreeFindK", count: 2, flops: 8e6, mem: 192 * mib, blocks: grid, tpb: tpb, touch: 24 * mib, random: true},
				{name: "btreeFindRange", count: 2, flops: 8e6, mem: 192 * mib, blocks: grid, tpb: tpb, touch: 24 * mib, random: true},
			},
		},
		{
			Name: "heartwall", Suite: "rodinia", Pinned: true,
			Buffers: []int64{128 * mib, 8 * mib}, Out: 8 * mib,
			Phases: []phase{{name: "hwTrack", count: 104, flops: 9e7, mem: 64 * mib, blocks: grid, tpb: tpb}},
		},

		// --- additional Polybench applications ---
		{
			Name: "adi", Suite: "polybench", Pinned: true,
			Buffers: []int64{64 * mib, 64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "adiCol", count: 100, flops: 5e7, mem: 128 * mib, blocks: grid, tpb: tpb},
				{name: "adiRow", count: 100, flops: 5e7, mem: 128 * mib, blocks: grid, tpb: tpb},
			},
		},
		{
			Name: "jacobi2d", Suite: "polybench", Pinned: true,
			Buffers: []int64{64 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{
				{name: "jacobiStep", count: 200, flops: 8e7, mem: 128 * mib, blocks: grid, tpb: tpb},
				{name: "jacobiCopy", count: 200, flops: 1.7e7, mem: 128 * mib, blocks: grid, tpb: tpb},
			},
		},

		// --- additional GraphBIG applications ---
		{
			Name: "gb-dc", Suite: "graphbig",
			Buffers: []int64{256 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "gbDegree", count: 1, flops: 4e7, mem: 320 * mib, blocks: grid, tpb: tpb}},
		},
		{
			Name: "gb-tc", Suite: "graphbig", UVMCapable: true,
			Buffers: []int64{256 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "gbTriangle", count: 12, flops: 2e9, mem: 640 * mib, blocks: grid, tpb: tpb, touch: 28 * mib, random: true, advance: true}},
		},

		// --- Tigr ---
		{
			Name: "tigr-bfs", Suite: "tigr", UVMCapable: true,
			Buffers: []int64{192 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "tigrBfs", count: 25, flops: 2e6, mem: 260 * mib, blocks: grid, tpb: tpb, touch: 10 * mib, random: true, advance: true}},
		},
		{
			Name: "tigr-sssp", Suite: "tigr",
			Buffers: []int64{192 * mib, 64 * mib}, Out: 64 * mib,
			Phases: []phase{{name: "tigrSssp", count: 40, flops: 3e6, mem: 10 * mib, blocks: grid, tpb: tpb}},
		},
	}
}
