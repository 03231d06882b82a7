//! Binary elementwise operations with NumPy-style broadcasting and
//! broadcast-aware gradient reduction.

use crate::shape::{Shape, StridedIter};
use crate::tensor::Tensor;

/// How one operand's elements map onto the broadcast output.
///
/// The two non-trivial fast plans cover the model's hot broadcasts:
/// `Cycle` for right-aligned operands (attention masks, per-channel gains,
/// row vectors) and `Repeat` for left-aligned operands (per-row statistics
/// such as RMSNorm's `mean(x²)`), with `Strided` as the general odometer
/// fallback.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BcPlan {
    /// Operand shape equals the output: `offset = i`.
    Full,
    /// Only leading axes broadcast; the operand tiles the output:
    /// `offset = i % len`.
    Cycle(usize),
    /// Only trailing axes broadcast; each operand element covers `inner`
    /// consecutive outputs: `offset = i / inner`.
    Repeat(usize),
    /// General strided broadcast.
    Strided,
}

/// Classify how `shape` (left-padded with 1s) maps onto `out`.
fn bc_plan(shape: &Shape, out: &Shape) -> BcPlan {
    if shape == out {
        return BcPlan::Full;
    }
    let od = out.dims();
    let sd = shape.dims();
    let pad = od.len() - sd.len();
    let dim = |d: usize| if d < pad { 1 } else { sd[d - pad] };
    // All-1 prefix + matching suffix → the operand tiles the output.
    let first = (0..od.len()).position(|d| dim(d) != 1).unwrap_or(od.len());
    if (first..od.len()).all(|d| dim(d) == od[d]) {
        return BcPlan::Cycle(od[first..].iter().product());
    }
    // Matching prefix + all-1 suffix → each element repeats over a run.
    let last = (0..od.len())
        .rposition(|d| dim(d) != 1)
        .map_or(0, |d| d + 1);
    if (0..last).all(|d| dim(d) == od[d]) {
        return BcPlan::Repeat(od[last..].iter().product());
    }
    BcPlan::Strided
}

/// Elementwise forward over the broadcast of two tensors.
fn broadcast_forward(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> (Vec<f32>, Shape) {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        // INVARIANT: incompatible shapes are an unrecoverable caller bug;
        // panicking with both shapes is the documented contract.
        .unwrap_or_else(|| panic!("cannot broadcast {} with {}", a.shape(), b.shape()));
    let n = out_shape.numel();
    let ad = a.data();
    let bd = b.data();
    let mut out = crate::pool::take_cleared(n);
    let (pa, pb) = (
        bc_plan(a.shape(), &out_shape),
        bc_plan(b.shape(), &out_shape),
    );
    // Every arm visits output positions in ascending order and applies `f`
    // to the exact operand pair the strided fallback would — the plans only
    // replace per-element index arithmetic with slicing.
    match (pa, pb) {
        (BcPlan::Full, BcPlan::Full) => {
            out.extend(ad.iter().zip(bd.iter()).map(|(&x, &y)| f(x, y)));
        }
        (BcPlan::Full, BcPlan::Cycle(l)) => {
            for chunk in ad.chunks_exact(l) {
                out.extend(chunk.iter().zip(bd.iter()).map(|(&x, &y)| f(x, y)));
            }
        }
        (BcPlan::Cycle(l), BcPlan::Full) => {
            for chunk in bd.chunks_exact(l) {
                out.extend(ad.iter().zip(chunk.iter()).map(|(&x, &y)| f(x, y)));
            }
        }
        (BcPlan::Full, BcPlan::Repeat(inner)) => {
            for (chunk, &y) in ad.chunks_exact(inner).zip(bd.iter()) {
                out.extend(chunk.iter().map(|&x| f(x, y)));
            }
        }
        (BcPlan::Repeat(inner), BcPlan::Full) => {
            for (&x, chunk) in ad.iter().zip(bd.chunks_exact(inner)) {
                out.extend(chunk.iter().map(|&y| f(x, y)));
            }
        }
        _ => {
            let sa = a.shape().broadcast_strides(&out_shape);
            let sb = b.shape().broadcast_strides(&out_shape);
            let ia = StridedIter::new(out_shape.dims(), &sa);
            let ib = StridedIter::new(out_shape.dims(), &sb);
            out.extend(ia.zip(ib).map(|(oa, ob)| f(ad[oa], bd[ob])));
        }
    }
    (out, out_shape)
}

/// Sliced gradient accumulation when the *target* operand is output-shaped
/// (`offset = i`) and the other operand follows plan `po`. `df` is called
/// as `df(target_val, other_val)`.
fn grad_full_target(
    gt: &mut [f32],
    g: &[f32],
    tv: &[f32],
    ov: &[f32],
    po: BcPlan,
    df: impl Fn(f32, f32) -> f32,
) {
    match po {
        BcPlan::Full => {
            for i in 0..g.len() {
                gt[i] += g[i] * df(tv[i], ov[i]);
            }
        }
        BcPlan::Cycle(l) => {
            for (gtc, (gc, tc)) in gt
                .chunks_exact_mut(l)
                .zip(g.chunks_exact(l).zip(tv.chunks_exact(l)))
            {
                for j in 0..l {
                    gtc[j] += gc[j] * df(tc[j], ov[j]);
                }
            }
        }
        BcPlan::Repeat(inner) => {
            for (r, (gtc, (gc, tc))) in gt
                .chunks_exact_mut(inner)
                .zip(g.chunks_exact(inner).zip(tv.chunks_exact(inner)))
                .enumerate()
            {
                let y = ov[r];
                for j in 0..inner {
                    gtc[j] += gc[j] * df(tc[j], y);
                }
            }
        }
        // INVARIANT: callers dispatch Strided to the general strided loop.
        BcPlan::Strided => unreachable!("strided plan reached the sliced kernel"),
    }
}

/// Sliced gradient accumulation when the *target* operand broadcasts per
/// plan `pt` and the other operand is output-shaped. Contributions land in
/// the same ascending-output order as the general strided loop, so the f32
/// accumulation sequence per slot is unchanged.
fn grad_bcast_target(
    gt: &mut [f32],
    g: &[f32],
    tv: &[f32],
    ov: &[f32],
    pt: BcPlan,
    df: impl Fn(f32, f32) -> f32,
) {
    match pt {
        BcPlan::Cycle(l) => {
            for (gc, oc) in g.chunks_exact(l).zip(ov.chunks_exact(l)) {
                for j in 0..l {
                    gt[j] += gc[j] * df(tv[j], oc[j]);
                }
            }
        }
        BcPlan::Repeat(inner) => {
            for (r, (gc, oc)) in g
                .chunks_exact(inner)
                .zip(ov.chunks_exact(inner))
                .enumerate()
            {
                let t = tv[r];
                for j in 0..inner {
                    gt[r] += gc[j] * df(t, oc[j]);
                }
            }
        }
        // INVARIANT: callers dispatch Full targets to `grad_full_target`
        // and Strided plans to the general strided loop.
        _ => unreachable!("full/strided target in broadcast-side kernel"),
    }
}

/// Backward for a broadcast binary op: accumulates `d(out)/d(a)`-weighted
/// output gradient into each parent, summing over broadcast axes implicitly
/// (repeated offsets accumulate).
fn broadcast_backward(
    out: &Tensor,
    a: &Tensor,
    b: &Tensor,
    da: impl Fn(f32, f32) -> f32, // ∂f/∂a at (a_val, b_val)
    db: impl Fn(f32, f32) -> f32, // ∂f/∂b at (a_val, b_val)
) {
    let g = out.out_grad();
    let g: &[f32] = &g;
    let ad = a.data();
    let bd = b.data();
    let out_shape = out.shape();
    let (pa, pb) = (bc_plan(a.shape(), out_shape), bc_plan(b.shape(), out_shape));
    // The sliced kernels need at least one output-shaped operand so the
    // other side can be addressed by slice; they also skip a parent whose
    // gradient buffer would be discarded (e.g. the additive attention mask).
    if pa != BcPlan::Strided && pb != BcPlan::Strided && (pa == BcPlan::Full || pb == BcPlan::Full)
    {
        if a.requires_grad() {
            let mut ga = crate::pool::PooledBuf::zeroed(a.numel());
            if pa == BcPlan::Full {
                grad_full_target(&mut ga, g, &ad, &bd, pb, &da);
            } else {
                grad_bcast_target(&mut ga, g, &ad, &bd, pa, &da);
            }
            a.accumulate_grad(&ga);
        }
        if b.requires_grad() {
            let mut gb = crate::pool::PooledBuf::zeroed(b.numel());
            let dbf = |t: f32, o: f32| db(o, t);
            if pb == BcPlan::Full {
                grad_full_target(&mut gb, g, &bd, &ad, pa, dbf);
            } else {
                grad_bcast_target(&mut gb, g, &bd, &ad, pb, dbf);
            }
            b.accumulate_grad(&gb);
        }
        return;
    }
    let sa = a.shape().broadcast_strides(out_shape);
    let sb = b.shape().broadcast_strides(out_shape);
    let mut ga = crate::pool::PooledBuf::zeroed(a.numel());
    let mut gb = crate::pool::PooledBuf::zeroed(b.numel());
    let ia = StridedIter::new(out_shape.dims(), &sa);
    let ib = StridedIter::new(out_shape.dims(), &sb);
    for (i, (oa, ob)) in ia.zip(ib).enumerate() {
        let (x, y) = (ad[oa], bd[ob]);
        ga[oa] += g[i] * da(x, y);
        gb[ob] += g[i] * db(x, y);
    }
    drop(ad);
    drop(bd);
    if a.requires_grad() {
        a.accumulate_grad(&ga);
    }
    if b.requires_grad() {
        b.accumulate_grad(&gb);
    }
}

macro_rules! binary_op {
    ($name:ident, $doc:literal, $f:expr, $da:expr, $db:expr) => {
        #[doc = $doc]
        pub fn $name(&self, other: &Tensor) -> Tensor {
            let (data, shape) = broadcast_forward(self, other, $f);
            let a = self.clone();
            let b = other.clone();
            Tensor::from_op(
                data,
                shape,
                vec![self.clone(), other.clone()],
                Box::new(move |out| broadcast_backward(out, &a, &b, $da, $db)),
            )
        }
    };
}

impl Tensor {
    binary_op!(
        add,
        "Elementwise `self + other` with broadcasting.",
        |x, y| x + y,
        |_, _| 1.0,
        |_, _| 1.0
    );

    binary_op!(
        sub,
        "Elementwise `self - other` with broadcasting.",
        |x, y| x - y,
        |_, _| 1.0,
        |_, _| -1.0
    );

    binary_op!(
        mul,
        "Elementwise `self * other` (Hadamard product) with broadcasting.",
        |x, y| x * y,
        |_, y| y,
        |x, _| x
    );

    binary_op!(
        div,
        "Elementwise `self / other` with broadcasting.",
        |x, y| x / y,
        |_, y| 1.0 / y,
        |x, y| -x / (y * y)
    );

    binary_op!(
        maximum,
        "Elementwise maximum with broadcasting. Ties route gradient to `self`.",
        |x, y| x.max(y),
        |x, y| if x >= y { 1.0 } else { 0.0 },
        |x, y| if x >= y { 0.0 } else { 1.0 }
    );

    binary_op!(
        minimum,
        "Elementwise minimum with broadcasting. Ties route gradient to `self`.",
        |x: f32, y: f32| x.min(y),
        |x, y| if x <= y { 1.0 } else { 0.0 },
        |x, y| if x <= y { 0.0 } else { 1.0 }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::param(v, s.to_vec())
    }

    #[test]
    fn add_same_shape() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![10.0, 20.0], &[2]);
        let c = a.add(&b);
        assert_eq!(c.to_vec(), vec![11.0, 22.0]);
        c.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad().unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn add_broadcast_row() {
        // (2,3) + (3,) broadcasts the row vector.
        let a = t(vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[2, 3]);
        let b = t(vec![1.0, 2.0, 3.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 2.0, 3.0, 4.0]);
        c.sum().backward();
        // b's gradient sums over the broadcast (row) axis.
        assert_eq!(b.grad().unwrap(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_gradients() {
        let a = t(vec![2.0, 3.0], &[2]);
        let b = t(vec![5.0, 7.0], &[2]);
        a.mul(&b).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![5.0, 7.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn mul_with_self_doubles_grad() {
        let a = t(vec![3.0], &[1]);
        a.mul(&a).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![6.0]);
    }

    #[test]
    fn div_gradients() {
        let a = t(vec![6.0], &[1]);
        let b = t(vec![2.0], &[1]);
        let c = a.div(&b);
        assert_eq!(c.to_vec(), vec![3.0]);
        c.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![0.5]);
        assert_eq!(b.grad().unwrap(), vec![-1.5]);
    }

    #[test]
    fn sub_broadcast_scalar_tensor() {
        let a = t(vec![5.0, 8.0], &[2]);
        let s = t(vec![3.0], &[]);
        let c = a.sub(&s);
        assert_eq!(c.to_vec(), vec![2.0, 5.0]);
        c.sum().backward();
        assert_eq!(s.grad().unwrap(), vec![-2.0]);
    }

    #[test]
    fn maximum_routes_gradient() {
        let a = t(vec![1.0, 5.0], &[2]);
        let b = t(vec![3.0, 2.0], &[2]);
        let c = a.maximum(&b);
        assert_eq!(c.to_vec(), vec![3.0, 5.0]);
        c.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![0.0, 1.0]);
        assert_eq!(b.grad().unwrap(), vec![1.0, 0.0]);
    }

    #[test]
    fn minimum_routes_gradient() {
        let a = t(vec![1.0, 5.0], &[2]);
        let b = t(vec![3.0, 2.0], &[2]);
        let c = a.minimum(&b);
        assert_eq!(c.to_vec(), vec![1.0, 2.0]);
        c.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 0.0]);
        assert_eq!(b.grad().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn incompatible_shapes_panic() {
        let a = t(vec![1.0; 3], &[3]);
        let b = t(vec![1.0; 4], &[4]);
        a.add(&b);
    }

    #[test]
    fn broadcast_both_directions() {
        // (3,1) * (1,4) -> (3,4)
        let a = t(vec![1.0, 2.0, 3.0], &[3, 1]);
        let b = t(vec![1.0, 10.0, 100.0, 1000.0], &[1, 4]);
        let c = a.mul(&b);
        assert_eq!(c.dims(), &[3, 4]);
        assert_eq!(c.at(&[2, 3]), 3000.0);
        c.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![1111.0, 1111.0, 1111.0]);
        assert_eq!(b.grad().unwrap(), vec![6.0, 6.0, 6.0, 6.0]);
    }
}
