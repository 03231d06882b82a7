//! Basic building blocks: linear projection (with optional LoRA adapter
//! slot), token embedding, and RMSNorm.

use std::cell::RefCell;

use rand::Rng;
use zg_tensor::{grad_enabled, no_grad, quant_env_enabled, Tensor};

/// A LoRA adapter attached to a [`Linear`]: `y += scale · (x·A)·B`.
///
/// The adapter *slot* lives here so attention code is adapter-agnostic;
/// construction, freezing policy, and merging live in the `zg-lora` crate.
#[derive(Clone)]
pub struct Adapter {
    /// Down-projection, shape `(in_features, rank)`.
    pub a: Tensor,
    /// Up-projection, shape `(rank, out_features)`.
    pub b: Tensor,
    /// `alpha / rank` scaling.
    pub scale: f32,
}

/// An int8 calibration of a [`Linear`] base weight: per-output-channel
/// absmax scales over the frozen `(in, out)` matrix, pinned to the
/// [`Tensor::data_version`] it was computed from so weight mutation
/// (merges, optimizer steps after unfreezing) invalidates it.
pub struct QuantizedLinear {
    /// Packed int8 weight with per-column scales.
    pub qweight: zg_tensor::QuantizedMatrix,
    /// `weight.data_version()` at calibration time.
    pub weight_version: u64,
}

impl QuantizedLinear {
    /// Calibrate `weight` (shape `(in, out)`) with per-output-channel
    /// absmax quantization.
    pub fn calibrate(weight: &Tensor) -> Self {
        let dims = weight.dims();
        assert_eq!(dims.len(), 2, "quantized weight must be 2-D");
        let q = zg_tensor::QuantizedMatrix::quantize(&weight.data(), dims[0], dims[1]);
        QuantizedLinear {
            qweight: q,
            weight_version: weight.data_version(),
        }
    }
}

/// Dense linear layer `y = x·W + b`, weight shape `(in, out)`.
pub struct Linear {
    /// Weight matrix `(in_features, out_features)`.
    pub weight: Tensor,
    /// Optional bias `(out_features,)`.
    pub bias: Option<Tensor>,
    /// Optional LoRA adapter applied additively.
    pub adapter: Option<Adapter>,
    /// int8 calibration of the frozen base weight, when enabled.
    quant: RefCell<Option<QuantizedLinear>>,
}

impl Linear {
    /// Xavier-initialized linear layer without bias (transformer default).
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = Tensor::xavier_uniform(in_features, out_features, rng);
        weight.set_requires_grad(true);
        Linear {
            weight,
            bias: None,
            adapter: None,
            quant: RefCell::new(None),
        }
    }

    /// Linear layer with a zero-initialized bias.
    pub fn with_bias(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let mut l = Self::new(in_features, out_features, rng);
        l.bias = Some(Tensor::param(vec![0.0; out_features], [out_features]));
        l
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Apply the layer: `x (…, in) -> (…, out)`, plus the adapter path when
    /// one is attached. Inside `no_grad` scopes with an int8 calibration
    /// present (or auto-calibrated under `ZG_QUANT=1`), dispatches to
    /// [`Linear::forward_quantized`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        if let Some(y) = self.try_forward_quantized(x) {
            return y;
        }
        let mut y = x.matmul(&self.weight);
        if let Some(ad) = &self.adapter {
            let delta = x.matmul(&ad.a).matmul(&ad.b).mul_scalar(ad.scale);
            y = y.add(&delta);
        }
        match &self.bias {
            Some(b) => y.add(b),
            None => y,
        }
    }

    /// Calibrate (`on = true`) or drop (`on = false`) the int8 copy of the
    /// base weight. Calibration only applies to *frozen* bases
    /// (`!weight.requires_grad()`) — trainable weights keep the exact f32
    /// path; returns whether a calibration is now present.
    pub fn set_quantized(&self, on: bool) -> bool {
        if !on || self.weight.requires_grad() {
            *self.quant.borrow_mut() = None;
            return false;
        }
        *self.quant.borrow_mut() = Some(QuantizedLinear::calibrate(&self.weight));
        true
    }

    /// Whether an int8 calibration is currently attached.
    pub fn is_quantized(&self) -> bool {
        self.quant.borrow().is_some()
    }

    /// The quantized dispatch gate: engages only under `no_grad` and with
    /// a fresh calibration (recalibrating when the weight mutated since;
    /// lazily calibrating frozen weights under `ZG_QUANT=1`).
    fn try_forward_quantized(&self, x: &Tensor) -> Option<Tensor> {
        if grad_enabled() {
            return None;
        }
        let stale = match self.quant.borrow().as_ref() {
            Some(q) => q.weight_version != self.weight.data_version(),
            None => {
                if !quant_env_enabled() || self.weight.requires_grad() {
                    return None;
                }
                true
            }
        };
        if stale && !self.set_quantized(true) {
            return None;
        }
        Some(self.forward_quantized(x))
    }

    /// int8 base GEMM + exact f32 LoRA delta + bias. Inference-only:
    /// always runs under `no_grad` and never records tape nodes.
    pub fn forward_quantized(&self, x: &Tensor) -> Tensor {
        no_grad(|| {
            let quant = self.quant.borrow();
            // INVARIANT: callers reach this through try_forward_quantized
            // (which calibrates) or after set_quantized(true) succeeded.
            let quant = quant.as_ref().expect("quantized calibration present");
            let dims = x.dims();
            // INVARIANT: tensors always have at least one axis.
            let k = *dims.last().expect("linear input must have a feature axis");
            assert_eq!(k, quant.qweight.k(), "feature dim mismatch");
            let m = x.numel() / k;
            let n = quant.qweight.n();
            let mut out = vec![0.0f32; m * n];
            quant.qweight.matmul_into(&x.data(), m, &mut out);
            let mut out_dims = dims[..dims.len() - 1].to_vec();
            out_dims.push(n);
            let mut y = Tensor::from_vec(out, out_dims);
            if let Some(ad) = &self.adapter {
                let delta = x.matmul(&ad.a).matmul(&ad.b).mul_scalar(ad.scale);
                y = y.add(&delta);
            }
            match &self.bias {
                Some(b) => y.add(b),
                None => y,
            }
        })
    }

    /// Named parameters (prefixed), including adapter parameters when present.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        let mut out = vec![(format!("{prefix}.weight"), self.weight.clone())];
        if let Some(b) = &self.bias {
            out.push((format!("{prefix}.bias"), b.clone()));
        }
        if let Some(ad) = &self.adapter {
            out.push((format!("{prefix}.lora_a"), ad.a.clone()));
            out.push((format!("{prefix}.lora_b"), ad.b.clone()));
        }
        out
    }
}

/// Token embedding table, shape `(vocab, d_model)`.
pub struct Embedding {
    /// The embedding matrix.
    pub weight: Tensor,
}

impl Embedding {
    /// Normal(0, 0.02) initialization, the usual LM choice.
    pub fn new(vocab: usize, d_model: usize, rng: &mut impl Rng) -> Self {
        let weight = Tensor::randn([vocab, d_model], 0.0, 0.02, rng);
        weight.set_requires_grad(true);
        Embedding { weight }
    }

    /// Look up `ids` (flattened) and reshape to `(batch, time, d_model)`.
    pub fn forward(&self, ids: &[u32], batch: usize, time: usize) -> Tensor {
        assert_eq!(ids.len(), batch * time, "ids length mismatch");
        let idx: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        let d = self.weight.dims()[1];
        self.weight.index_select0(&idx).reshape([batch, time, d])
    }

    /// Named parameters.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        vec![(format!("{prefix}.weight"), self.weight.clone())]
    }
}

/// Root-mean-square layer norm (no mean subtraction), as in Llama/Mistral:
/// `y = x / rms(x) * g`.
pub struct RmsNorm {
    /// Learned gain, shape `(d_model,)`.
    pub gain: Tensor,
    /// Stabilizing epsilon.
    pub eps: f32,
}

impl RmsNorm {
    /// Gain initialized to ones.
    pub fn new(d_model: usize, eps: f32) -> Self {
        RmsNorm {
            gain: Tensor::param(vec![1.0; d_model], [d_model]),
            eps,
        }
    }

    /// Normalize over the last axis.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let ms = x.square().mean_axis(-1, true).add_scalar(self.eps);
        x.mul(&ms.rsqrt()).mul(&self.gain)
    }

    /// Named parameters.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        vec![(format!("{prefix}.gain"), self.gain.clone())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::with_bias(4, 3, &mut rng);
        let x = Tensor::ones([2, 5, 4]);
        let y = l.forward(&x);
        assert_eq!(y.dims(), &[2, 5, 3]);
        assert_eq!(l.params("l").len(), 2);
    }

    #[test]
    fn linear_adapter_path_adds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(4, 4, &mut rng);
        let x = Tensor::ones([1, 4]);
        let base = l.forward(&x).to_vec();
        // Identity-ish adapter: A picks feature 0, B writes 10 to output 0.
        let a = Tensor::param(vec![1.0, 0.0, 0.0, 0.0], [4, 1]);
        let b = Tensor::param(vec![10.0, 0.0, 0.0, 0.0], [1, 4]);
        l.adapter = Some(Adapter { a, b, scale: 1.0 });
        let with = l.forward(&x).to_vec();
        assert!((with[0] - base[0] - 10.0).abs() < 1e-5);
        assert!((with[1] - base[1]).abs() < 1e-5);
        assert_eq!(l.params("l").len(), 3); // weight + lora_a + lora_b
    }

    #[test]
    fn quantized_linear_close_to_f32_and_adapter_exact() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = Linear::with_bias(16, 24, &mut rng);
        let a = Tensor::from_vec(vec![0.1; 16], [16, 1]);
        let b = Tensor::from_vec(vec![0.2; 24], [1, 24]);
        l.adapter = Some(Adapter { a, b, scale: 0.5 });
        l.weight.set_requires_grad(false); // frozen base
        let x = Tensor::randn([3, 16], 0.0, 1.0, &mut rng);
        // The grad-mode forward never takes the int8 path, so it is the
        // f32 baseline even under ZG_QUANT=1 (lazy auto-calibration).
        let f32_out = l.forward(&x).to_vec();
        assert!(l.set_quantized(true));
        assert!(l.is_quantized());
        let q_out = zg_tensor::no_grad(|| l.forward(&x).to_vec());
        let denom = f32_out.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        for (qv, fv) in q_out.iter().zip(&f32_out) {
            let rel = (qv - fv).abs() / denom;
            assert!(rel < 0.05, "quantized output drifted: {qv} vs {fv}");
        }
        // Outside no_grad the exact f32 path still runs (bit-identical).
        let grad_out = l.forward(&x).to_vec();
        assert_eq!(grad_out, f32_out, "grad-mode forward must stay exact f32");
        // ...and it is the f32 no_grad path bit for bit.
        l.set_quantized(false);
        if !zg_tensor::quant_env_enabled() {
            let nograd_out = zg_tensor::no_grad(|| l.forward(&x).to_vec());
            assert_eq!(nograd_out, f32_out, "no_grad f32 path must match grad mode");
        }
    }

    #[test]
    fn quantized_linear_respects_grad_mode_and_freeze() {
        let mut rng = StdRng::seed_from_u64(8);
        let l = Linear::new(8, 8, &mut rng);
        // Trainable weight: calibration refused.
        assert!(!l.set_quantized(true));
        assert!(!l.is_quantized());
        l.weight.set_requires_grad(false);
        assert!(l.set_quantized(true));
        let x = Tensor::ones([2, 8]);
        let q_out = zg_tensor::no_grad(|| l.forward(&x).to_vec());
        // Grad mode: exact f32 even with a calibration attached.
        let f32_out = l.forward(&x).to_vec();
        let exact = zg_tensor::no_grad(|| {
            let mut y = x.matmul(&l.weight);
            if let Some(b) = &l.bias {
                y = y.add(b);
            }
            y.to_vec()
        });
        assert_eq!(f32_out, exact);
        assert_ne!(q_out, exact, "int8 path should actually differ slightly");
    }

    #[test]
    fn quantized_linear_recalibrates_after_weight_mutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let l = Linear::new(6, 6, &mut rng);
        l.weight.set_requires_grad(false);
        assert!(l.set_quantized(true));
        let x = Tensor::ones([1, 6]);
        let before = zg_tensor::no_grad(|| l.forward(&x).to_vec());
        // Mutate the weight: the stale calibration must not be used.
        let doubled: Vec<f32> = l.weight.data().iter().map(|v| v * 2.0).collect();
        l.weight.set_data(&doubled);
        let after = zg_tensor::no_grad(|| l.forward(&x).to_vec());
        for (a, b) in after.iter().zip(&before) {
            assert!(
                (a - 2.0 * b).abs() < 2e-2 * b.abs().max(1.0),
                "recalibration missed: {a} vs 2·{b}"
            );
        }
    }

    #[test]
    fn embedding_lookup_shape_and_grad() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = Embedding::new(10, 4, &mut rng);
        let y = e.forward(&[1, 2, 1, 0, 3, 9], 2, 3);
        assert_eq!(y.dims(), &[2, 3, 4]);
        y.sum().backward();
        let g = e.weight.grad().unwrap();
        // Row 1 used twice -> grad 2 per column.
        assert!((g[4] - 2.0).abs() < 1e-6);
        // Row 5 unused -> zero grad.
        assert!(g[5 * 4..6 * 4].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let n = RmsNorm::new(4, 1e-6);
        let x = Tensor::from_vec(vec![2.0, -2.0, 2.0, -2.0, 0.1, 0.1, 0.1, 0.1], [2, 4]);
        let y = n.forward(&x);
        for row in 0..2 {
            let vals: Vec<f32> = (0..4).map(|j| y.at(&[row, j])).collect();
            let rms = (vals.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-3, "row {row} rms {rms}");
        }
    }

    #[test]
    fn rmsnorm_gain_scales() {
        let n = RmsNorm::new(2, 1e-6);
        n.gain.set_data(&[2.0, 0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let y = n.forward(&x).to_vec();
        assert!((y[0] / y[1] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn rmsnorm_backward_flows() {
        let n = RmsNorm::new(3, 1e-6);
        let x = Tensor::param(vec![1.0, 2.0, 3.0], [1, 3]);
        n.forward(&x).sum().backward();
        assert!(x.grad().is_some());
        assert!(n.gain.grad().is_some());
    }
}
