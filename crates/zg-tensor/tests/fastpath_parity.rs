//! Bit-identity of the op fast paths against test-local oracles: the
//! sliced broadcast binaries, the run-copy/transpose permute and
//! broadcast gathers, and the dead-gradient GEMM skip must produce
//! outputs and gradients **bitwise equal** to the straightforward strided
//! implementations below, across every broadcast plan and requires-grad
//! combination.
//!
//! Every oracle walks the output in ascending row-major order, reads each
//! operand through broadcast strides (0 on broadcast axes), and
//! accumulates gradients with `g[i] * ∂f` into zeroed buffers at the
//! operand offsets — the float-operation order the fast paths promise to
//! keep.

use proptest::prelude::*;
use zg_tensor::Tensor;

/// Deterministic quarter-quantized values in [-2, 2): coarse enough to
/// produce exact ties (exercising maximum/minimum tie routing); the
/// comparison is on raw bits either way.
fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 16) as f32 - 8.0) * 0.25
        })
        .collect()
}

/// Upstream gradients: fine-grained values whose sums round, so any
/// change in accumulation order shows up in the bits.
fn fill_grad(n: usize, seed: u64) -> Vec<f32> {
    fill(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| v + (i as f32 * 0.618_034).fract() * 0.013_7)
        .collect()
}

/// Like `fill`, but strictly positive (safe denominators).
fn fill_pos(n: usize, seed: u64) -> Vec<f32> {
    fill(n, seed).into_iter().map(|v| v * v + 0.25).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn tensor(v: Vec<f32>, dims: &[usize], requires_grad: bool) -> Tensor {
    if requires_grad {
        Tensor::param(v, dims.to_vec())
    } else {
        Tensor::from_vec(v, dims.to_vec())
    }
}

type OpResult = (Vec<u32>, Option<Vec<u32>>, Option<Vec<u32>>);

/// Strides of `src` (right-aligned against `out`) with 0 on every
/// broadcast axis.
fn bcast_strides(src: &[usize], out: &[usize]) -> Vec<usize> {
    let pad = out.len() - src.len();
    let mut strides = vec![0; out.len()];
    let mut step = 1;
    for d in (0..src.len()).rev() {
        strides[pad + d] = if src[d] == 1 { 0 } else { step };
        step *= src[d];
    }
    strides
}

/// Source offsets visited in ascending row-major output order.
fn offsets(dims: &[usize], strides: &[usize]) -> Vec<usize> {
    let n: usize = dims.iter().product();
    (0..n)
        .map(|mut i| {
            let mut o = 0;
            for d in (0..dims.len()).rev() {
                o += (i % dims[d]) * strides[d];
                i /= dims[d];
            }
            o
        })
        .collect()
}

/// NumPy broadcast of two shapes (callers only pass compatible ones).
fn broadcast_shape(sa: &[usize], sb: &[usize]) -> Vec<usize> {
    let rank = sa.len().max(sb.len());
    let dim = |s: &[usize], d: usize| {
        let pad = rank - s.len();
        if d < pad {
            1
        } else {
            s[d - pad]
        }
    };
    (0..rank).map(|d| dim(sa, d).max(dim(sb, d))).collect()
}

/// Gather `x` through `offs`, and scatter-add `g` back through them.
fn gather_scatter(x: &[f32], offs: &[usize], g: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let y = offs.iter().map(|&o| x[o]).collect();
    let mut gx = vec![0.0f32; x.len()];
    for (&o, &gi) in offs.iter().zip(g) {
        gx[o] += gi;
    }
    (y, gx)
}

type Scalar2 = fn(f32, f32) -> f32;

/// A binary op with its forward and partials written out exactly as the
/// tensor engine defines them.
struct BinOp {
    name: &'static str,
    op: fn(&Tensor, &Tensor) -> Tensor,
    f: Scalar2,
    da: Scalar2,
    db: Scalar2,
    positive_b: bool,
}

const BIN_OPS: &[BinOp] = &[
    BinOp {
        name: "add",
        op: Tensor::add,
        f: |x, y| x + y,
        da: |_, _| 1.0,
        db: |_, _| 1.0,
        positive_b: false,
    },
    BinOp {
        name: "sub",
        op: Tensor::sub,
        f: |x, y| x - y,
        da: |_, _| 1.0,
        db: |_, _| -1.0,
        positive_b: false,
    },
    BinOp {
        name: "mul",
        op: Tensor::mul,
        f: |x, y| x * y,
        da: |_, y| y,
        db: |x, _| x,
        positive_b: false,
    },
    BinOp {
        name: "div",
        op: Tensor::div,
        f: |x, y| x / y,
        da: |_, y| 1.0 / y,
        db: |x, y| -x / (y * y),
        positive_b: true,
    },
    BinOp {
        name: "maximum",
        op: Tensor::maximum,
        f: |x, y| x.max(y),
        da: |x, y| if x >= y { 1.0 } else { 0.0 },
        db: |x, y| if x >= y { 0.0 } else { 1.0 },
        positive_b: false,
    },
    BinOp {
        name: "minimum",
        op: Tensor::minimum,
        f: |x, y| x.min(y),
        da: |x, y| if x <= y { 1.0 } else { 0.0 },
        db: |x, y| if x <= y { 0.0 } else { 1.0 },
        positive_b: false,
    },
];

/// Run `op` through the engine and through the strided oracle,
/// backpropagating the same position-varying gradient through both.
/// Returns `(engine, oracle)`.
fn binop_pair(op: &BinOp, sa: &[usize], sb: &[usize], need: (bool, bool)) -> (OpResult, OpResult) {
    let av = fill(sa.iter().product(), 3);
    let nb = sb.iter().product();
    let bv = if op.positive_b {
        fill_pos(nb, 5)
    } else {
        fill(nb, 5)
    };
    let out = broadcast_shape(sa, sb);
    let w = fill_grad(out.iter().product(), 11);

    let a = tensor(av.clone(), sa, need.0);
    let b = tensor(bv.clone(), sb, need.1);
    let c = (op.op)(&a, &b);
    let engine_out = bits(&c.data());
    c.mul(&Tensor::from_vec(w.clone(), out.clone()))
        .sum()
        .backward();
    let engine = (
        engine_out,
        a.grad().map(|g| bits(&g)),
        b.grad().map(|g| bits(&g)),
    );

    let oa = offsets(&out, &bcast_strides(sa, &out));
    let ob = offsets(&out, &bcast_strides(sb, &out));
    let mut y = Vec::with_capacity(w.len());
    let mut ga = vec![0.0f32; av.len()];
    let mut gb = vec![0.0f32; bv.len()];
    for (i, (&ia, &ib)) in oa.iter().zip(&ob).enumerate() {
        let (x, v) = (av[ia], bv[ib]);
        y.push((op.f)(x, v));
        ga[ia] += w[i] * (op.da)(x, v);
        gb[ib] += w[i] * (op.db)(x, v);
    }
    let oracle = (
        bits(&y),
        need.0.then(|| bits(&ga)),
        need.1.then(|| bits(&gb)),
    );
    (engine, oracle)
}

const NEEDS: [(bool, bool); 3] = [(true, true), (true, false), (false, true)];

/// Shape pairs that pin every plan pairing the classifier produces:
/// Full/Full, leading-broadcast cycles, trailing-broadcast repeats, scalar
/// operands, and genuinely strided fallbacks (middle or two-sided
/// broadcasts).
const SHAPE_PAIRS: &[(&[usize], &[usize])] = &[
    (&[2, 3, 4], &[2, 3, 4]),
    (&[2, 3, 4], &[4]),
    (&[2, 3, 4], &[3, 4]),
    (&[2, 3, 4], &[1, 3, 4]),
    (&[3, 4], &[2, 3, 4]),
    (&[2, 3, 4], &[2, 3, 1]),
    (&[2, 3, 1], &[2, 3, 4]),
    (&[2, 3, 4], &[2, 1, 1]),
    (&[2, 3, 4], &[1]),
    (&[1], &[2, 3, 4]),
    (&[2, 3, 4], &[]),
    (&[3, 1], &[1, 4]),
    (&[2, 3, 4], &[2, 1, 4]),
    (&[2, 1, 4], &[1, 3, 1]),
];

#[test]
fn binary_ops_bitwise_match_oracle_across_plans() {
    for op in BIN_OPS {
        for &(sa, sb) in SHAPE_PAIRS {
            for need in NEEDS {
                let (engine, oracle) = binop_pair(op, sa, sb, need);
                assert_eq!(
                    engine, oracle,
                    "{} {sa:?} x {sb:?} need={need:?} diverged",
                    op.name
                );
            }
        }
    }
}

/// An operand shape derived from `out`: its trailing `rank` axes, each
/// kept or collapsed to 1 by `keep`.
fn operand_shape(out: &[usize], rank: usize, keep: &[bool]) -> Vec<usize> {
    let rank = rank.min(out.len());
    out[out.len() - rank..]
        .iter()
        .zip(keep)
        .map(|(&d, &k)| if k { d } else { 1 })
        .collect()
}

/// A permutation of `0..rank` from random sort keys.
fn permutation(keys: &[u32], rank: usize) -> Vec<usize> {
    let mut axes: Vec<usize> = (0..rank).collect();
    axes.sort_by_key(|&d| keys[d]);
    axes
}

fn permute_pair(dims: &[usize], axes: &[usize]) -> (OpResult, OpResult) {
    let n: usize = dims.iter().product();
    let xv = fill(n, 17);
    let out: Vec<usize> = axes.iter().map(|&d| dims[d]).collect();
    let w = fill_grad(n, 23);

    let x = Tensor::param(xv.clone(), dims.to_vec());
    let y = x.permute(axes);
    let engine_out = bits(&y.data());
    y.mul(&Tensor::from_vec(w.clone(), out.clone()))
        .sum()
        .backward();
    let engine = (engine_out, x.grad().map(|g| bits(&g)), None);

    let src = bcast_strides(dims, dims);
    let strides: Vec<usize> = axes.iter().map(|&d| src[d]).collect();
    let (yv, gx) = gather_scatter(&xv, &offsets(&out, &strides), &w);
    (engine, (bits(&yv), Some(bits(&gx)), None))
}

#[test]
fn permute_bitwise_matches_oracle() {
    let cases: &[(&[usize], &[usize])] = &[
        (&[2, 3, 4, 5], &[0, 2, 1, 3]), // run-copy: last axis fixed
        (&[2, 3, 4, 5], &[0, 1, 3, 2]), // trailing transpose
        (&[2, 3, 4, 5], &[3, 2, 1, 0]), // full reversal
        (&[2, 3, 4, 5], &[2, 0, 3, 1]), // irregular
        (&[6, 7], &[1, 0]),             // plain matrix transpose
        (&[2, 3, 4], &[0, 1, 2]),       // identity (single full run)
        (&[5], &[0]),                   // rank 1
    ];
    for &(dims, axes) in cases {
        let (engine, oracle) = permute_pair(dims, axes);
        assert_eq!(engine, oracle, "permute {dims:?} by {axes:?} diverged");
    }
}

fn broadcast_to_pair(dims: &[usize], target: &[usize]) -> (OpResult, OpResult) {
    let xv = fill(dims.iter().product(), 29);
    let w = fill_grad(target.iter().product(), 31);

    let x = Tensor::param(xv.clone(), dims.to_vec());
    let y = x.broadcast_to(target.to_vec());
    let engine_out = bits(&y.data());
    y.mul(&Tensor::from_vec(w.clone(), target.to_vec()))
        .sum()
        .backward();
    let engine = (engine_out, x.grad().map(|g| bits(&g)), None);

    let offs = offsets(target, &bcast_strides(dims, target));
    let (yv, gx) = gather_scatter(&xv, &offs, &w);
    (engine, (bits(&yv), Some(bits(&gx)), None))
}

#[test]
fn broadcast_to_bitwise_matches_oracle() {
    let cases: &[(&[usize], &[usize])] = &[
        (&[2, 1, 4], &[2, 3, 4]), // middle broadcast: run-copy of 4
        (&[4], &[2, 3, 4]),       // leading broadcast: run-copy of 4
        (&[2, 3, 1], &[2, 3, 4]), // trailing broadcast: elementwise
        (&[2, 1], &[2, 3]),
        (&[], &[2, 3]),
        (&[1, 3, 1], &[2, 3, 4]),
    ];
    for &(dims, target) in cases {
        let (engine, oracle) = broadcast_to_pair(dims, target);
        assert_eq!(engine, oracle, "broadcast {dims:?} -> {target:?} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn binary_ops_match_oracle_on_random_broadcasts(
        out in prop::collection::vec(1usize..6, 0..5),
        rank_a in 0usize..5,
        rank_b in 0usize..5,
        keep_a in prop::collection::vec(any::<bool>(), 4),
        keep_b in prop::collection::vec(any::<bool>(), 4),
        full in 0usize..3,
        op in 0usize..6,
        need in 0usize..3,
    ) {
        // Both operands are trailing, partly collapsed views of `out`, so
        // the pair always broadcasts. `full` pins one side to `out` in two
        // of three cases, since the sliced kernels need an output-shaped
        // operand; collapsed prefixes then give Cycle, collapsed suffixes
        // Repeat, and anything else the strided fallback.
        let mut sa = operand_shape(&out, rank_a, &keep_a);
        let mut sb = operand_shape(&out, rank_b, &keep_b);
        match full {
            0 => sa = out.clone(),
            1 => sb = out.clone(),
            _ => {}
        }
        let op = &BIN_OPS[op];
        let (engine, oracle) = binop_pair(op, &sa, &sb, NEEDS[need]);
        prop_assert!(engine == oracle, "{} {:?} x {:?} diverged", op.name, sa, sb);
    }

    #[test]
    fn permute_matches_oracle_on_random_permutations(
        dims in prop::collection::vec(1usize..5, 1..5),
        keys in prop::collection::vec(any::<u32>(), 4),
    ) {
        let axes = permutation(&keys, dims.len());
        let (engine, oracle) = permute_pair(&dims, &axes);
        prop_assert!(engine == oracle, "permute {:?} by {:?} diverged", dims, axes);
    }

    #[test]
    fn broadcast_to_matches_oracle_on_random_shapes(
        target in prop::collection::vec(1usize..5, 0..5),
        rank in 0usize..5,
        keep in prop::collection::vec(any::<bool>(), 4),
    ) {
        let dims = operand_shape(&target, rank, &keep);
        let (engine, oracle) = broadcast_to_pair(&dims, &target);
        prop_assert!(engine == oracle, "broadcast {:?} -> {:?} diverged", dims, target);
    }
}

fn run_matmul(sa: &[usize], sb: &[usize], need: (bool, bool)) -> OpResult {
    let a = tensor(fill(sa.iter().product(), 37), sa, need.0);
    let b = tensor(fill(sb.iter().product(), 41), sb, need.1);
    let c = a.matmul(&b);
    let out = bits(&c.data());
    let w = Tensor::from_vec(fill_grad(c.numel(), 43), c.dims().to_vec());
    c.mul(&w).sum().backward();
    (out, a.grad().map(|g| bits(&g)), b.grad().map(|g| bits(&g)))
}

/// The dead-gradient GEMM skip must be invisible: whichever side requires
/// grad gets exactly the gradient it gets when both sides require grad
/// (nothing skipped), including broadcast-batch reduction cases.
#[test]
fn matmul_grad_skip_bitwise_matches_both_sides_run() {
    let cases: &[(&[usize], &[usize])] = &[
        (&[4, 6], &[6, 5]),
        (&[2, 3, 4], &[4, 5]),          // batched x unbatched (dB reduces)
        (&[3, 4], &[2, 4, 5]),          // unbatched x batched (dA reduces)
        (&[2, 1, 3, 4], &[1, 5, 4, 2]), // two-sided batch broadcast
    ];
    for &(sa, sb) in cases {
        let (out, ga, gb) = run_matmul(sa, sb, (true, true));
        assert_eq!(
            run_matmul(sa, sb, (true, false)),
            (out.clone(), ga, None),
            "matmul {sa:?} x {sb:?}: dB skip changed dA"
        );
        assert_eq!(
            run_matmul(sa, sb, (false, true)),
            (out, None, gb),
            "matmul {sa:?} x {sb:?}: dA skip changed dB"
        );
    }
}
