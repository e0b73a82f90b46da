//! Kernel probes and shape arithmetic for the benchmark's frame CNN.
//!
//! The probes time `matmul_transpose_b_into` and `im2col_into` on the
//! CNN's stem, inception and dense shapes at batch 1 and at the
//! micro-batcher's `max_batch`. FLOPs and bytes are computed from the
//! `CnnConfig` shapes, mirroring `FrameCnn::new`.

use std::time::{Duration, Instant};

use darnet_core::CnnConfig;
use darnet_tensor::{im2col_into, Conv2dSpec, Parallelism, SplitMix64, Tensor};

use crate::util::{median, put, Metrics};

fn scaled(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(1)
}

/// One convolution as the CNN runs it: `in_c → out_c`, `k×k`, same
/// padding, stride 1, on an `hw×hw` map.
#[derive(Debug, Clone, Copy)]
struct ConvShape {
    in_c: usize,
    out_c: usize,
    k: usize,
    hw: usize,
}

impl ConvShape {
    fn patch(&self) -> usize {
        self.in_c * self.k * self.k
    }

    fn pixels(&self) -> usize {
        self.hw * self.hw
    }

    fn flops(&self) -> f64 {
        2.0 * (self.pixels() * self.patch() * self.out_c) as f64
    }

    /// f32 elements read and written by the im2col → GEMM → NCHW passes
    /// for one frame.
    fn elems_moved(&self) -> usize {
        let input = self.in_c * self.pixels();
        let cols = self.pixels() * self.patch();
        let out = self.out_c * self.pixels();
        // im2col reads the input and writes the patches; the GEMM reads
        // the patches and writes pixel-major output; the layout pass
        // reads that and writes NCHW.
        input + 2 * cols + 2 * out + out
    }
}

/// The convolution and dense shapes of a `FrameCnn`.
#[derive(Debug, Clone)]
pub struct CnnShapes {
    convs: Vec<ConvShape>,
    /// `(inputs, outputs)` of the dense layers.
    dense: Vec<(usize, usize)>,
    stem: ConvShape,
    inception: ConvShape,
}

impl CnnShapes {
    /// Shapes for `config`, following `FrameCnn::new`.
    pub fn new(config: &CnnConfig) -> Self {
        let w = config.width;
        let stem = ConvShape {
            in_c: 1,
            out_c: scaled(8, w),
            k: 3,
            hw: config.input_size,
        };
        let pool2 = |n: usize| if n >= 2 { (n - 2) / 2 + 1 } else { n };
        let block = |in_c: usize, hw: usize, c: [usize; 6]| {
            let [c1, c3r, c3, c5r, c5, pp] = c.map(|b| scaled(b, w));
            let conv = |in_c, out_c, k| ConvShape { in_c, out_c, k, hw };
            // Branches: 1×1; 1×1 → 3×3; 1×1 → 5×5; 3×3 max-pool → 1×1.
            let v = vec![
                conv(in_c, c1, 1),
                conv(in_c, c3r, 1),
                conv(c3r, c3, 3),
                conv(in_c, c5r, 1),
                conv(c5r, c5, 5),
                conv(in_c, pp, 1),
            ];
            (v, c1 + c3 + c5 + pp)
        };
        let hw_a = pool2(config.input_size);
        let (a, total_a) = block(stem.out_c, hw_a, [4, 4, 6, 2, 3, 3]);
        let hw_b = pool2(hw_a);
        let (b, total_b) = block(total_a, hw_b, [6, 6, 10, 3, 4, 4]);
        let mut spatial = pool2(hw_b);
        if spatial >= 2 {
            spatial = pool2(spatial);
        }
        let feat_in = total_b * spatial * spatial;
        let feat = (total_b * 3).max(16);
        let inception = a[2];
        let mut convs = vec![stem];
        convs.extend(a);
        convs.extend(b);
        CnnShapes {
            convs,
            dense: vec![(feat_in, feat), (feat, config.classes)],
            stem,
            inception,
        }
    }

    /// GEMM FLOPs of one frame (convolutions and dense layers).
    pub fn flops_per_frame(&self) -> f64 {
        let conv: f64 = self.convs.iter().map(ConvShape::flops).sum();
        let dense: f64 = self.dense.iter().map(|&(i, o)| 2.0 * (i * o) as f64).sum();
        conv + dense
    }

    /// Bytes the im2col, GEMM and layout passes read and write for one
    /// frame, from tensor sizes (weights and pooling excluded).
    pub fn bytes_moved_per_frame(&self) -> f64 {
        let conv: usize = self.convs.iter().map(ConvShape::elems_moved).sum();
        let dense: usize = self.dense.iter().map(|&(i, o)| i + o).sum();
        4.0 * (conv + dense) as f64
    }
}

fn random(dims: &[usize], rng: &mut SplitMix64) -> Tensor {
    let n = dims.iter().product();
    let data = (0..n).map(|_| rng.next_f32() - 0.5).collect();
    Tensor::from_vec(data, dims).expect("probe tensor dims match data")
}

/// Median wall time of `f` over repeated calls filling `budget`.
fn time_calls(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || times.len() < 5 {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Runs the kernel probes and records `tensor.*` metrics.
pub fn kernel_probes(config: &CnnConfig, max_batch: usize, metrics: &mut Metrics) {
    let shapes = CnnShapes::new(config);
    let par = Parallelism::serial();
    let mut rng = SplitMix64::new(0x9B0B);
    let budget = Duration::from_millis(40);
    for batch in [1, max_batch] {
        for (name, conv) in [("stem", shapes.stem), ("inception", shapes.inception)] {
            let spec = Conv2dSpec::square(conv.in_c, conv.out_c, conv.k, 1, conv.k / 2);
            let input = random(&[batch, conv.in_c, conv.hw, conv.hw], &mut rng);
            let rows = batch * conv.pixels();
            let mut cols = Tensor::zeros(&[rows, conv.patch()]);
            let s = time_calls(budget, || {
                im2col_into(&input, &spec, &par, &mut cols).expect("im2col probe shapes");
            });
            put(
                metrics,
                &format!("tensor.im2col_ns_per_elem.{name}_b{batch}"),
                s * 1e9 / (rows * conv.patch()) as f64,
                "ns",
            );
            let weight = random(&[conv.out_c, conv.patch()], &mut rng);
            let mut out = Tensor::zeros(&[rows, conv.out_c]);
            let s = time_calls(budget, || {
                cols.matmul_transpose_b_into(&weight, &par, &mut out)
                    .expect("matmul probe shapes");
            });
            put(
                metrics,
                &format!("tensor.matmul_tb_gflops.{name}_b{batch}"),
                2.0 * (rows * conv.patch() * conv.out_c) as f64 / s * 1e-9,
                "GFLOP/s",
            );
        }
        let (fin, fout) = shapes.dense[0];
        let x = random(&[batch, fin], &mut rng);
        let weight = random(&[fout, fin], &mut rng);
        let mut out = Tensor::zeros(&[batch, fout]);
        let s = time_calls(budget, || {
            x.matmul_transpose_b_into(&weight, &par, &mut out)
                .expect("matmul probe shapes");
        });
        put(
            metrics,
            &format!("tensor.matmul_tb_gflops.dense_b{batch}"),
            2.0 * (batch * fin * fout) as f64 / s * 1e-9,
            "GFLOP/s",
        );
    }
    put(
        metrics,
        "tensor.bytes_moved_per_frame",
        shapes.bytes_moved_per_frame(),
        "B",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_follow_the_default_cnn() {
        let s = CnnShapes::new(&CnnConfig::default());
        assert_eq!(s.stem.out_c, 8);
        assert_eq!(s.stem.hw, 48);
        assert_eq!(s.inception.in_c, 4);
        assert_eq!(s.inception.hw, 24);
        // Block B emits 6 + 10 + 4 + 4 = 24 channels on a 3×3 map.
        assert_eq!(s.dense[0], (24 * 9, 72));
        assert!(s.flops_per_frame() > 2.0 * 2304.0 * 9.0 * 8.0);
    }
}
