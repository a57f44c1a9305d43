//! The benchmark's inputs: a seeded model zoo, held-out rows, and the
//! reference answers every measured output is checked against.
//!
//! Everything here is generated from the `--seed` argument and is never
//! timed. The same seed gives a byte-identical zoo and input rows; the
//! `Fnv` digest over them is compared across processes on every run, and
//! `--selftest` checks that training itself repeats.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hummingbird::data::{tree_bench_dataset, Dataset, TREE_BENCH_SPECS};
use hummingbird::ml::ensemble::TreeEnsemble;
use hummingbird::ml::forest::{ForestConfig, RandomForestClassifier};
use hummingbird::ml::gbdt::{GbdtConfig, GradientBoostingClassifier};
use hummingbird::ml::Task;
use hummingbird::pipeline::{io, FittedOp, Pipeline};
use hummingbird::tensor::Tensor;

/// Trees per ensemble (the paper's 500, scaled to a 2-core machine).
const TREES: usize = 20;

/// Rows scored per model per batch call in `offline_batch`, and the size
/// of each dataset's held-out set (paper Table 7 batch size).
pub const HELD_OUT_ROWS: usize = 10_000;

/// The three training algorithms of the paper's §6.1.1 and the strategy
/// `TreeStrategy::Auto` must pick for each at batch 10K on the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Depth-8 random forest: compiled as PerfectTreeTraversal.
    RandomForest,
    /// Leaf-wise boosting, depth above 10: compiled as TreeTraversal.
    LightGbm,
    /// Depth-3 boosting: compiled as GEMM.
    XgBoost,
}

impl Algo {
    pub const ALL: [Algo; 3] = [Algo::RandomForest, Algo::LightGbm, Algo::XgBoost];

    pub fn label(self) -> &'static str {
        match self {
            Algo::RandomForest => "rf",
            Algo::LightGbm => "lgbm",
            Algo::XgBoost => "xgb",
        }
    }

    /// `TreeStrategy::label` of the strategy expected at batch 10K.
    pub fn batch_strategy(self) -> &'static str {
        match self {
            Algo::RandomForest => "PTT",
            Algo::LightGbm => "TT",
            Algo::XgBoost => "GEMM",
        }
    }
}

/// One gbm-bench stand-in: its name and training-row count.
const DATASETS: [(&str, usize); 3] = [("fraud", 4_000), ("covtype", 4_000), ("epsilon", 1_000)];

/// Held-out rows of one dataset, shared by the three models trained on it.
pub struct Data {
    pub name: &'static str,
    /// `[HELD_OUT_ROWS, features]`, drawn independently of the training rows.
    pub rows: Tensor<f32>,
}

pub struct Model {
    /// `<dataset>-<algo>`, the name models are registered under.
    pub name: String,
    /// Index into [`Zoo::data`].
    pub data: usize,
    pub algo: Algo,
    pub pipeline: Pipeline,
    pub ensemble: TreeEnsemble,
    /// `Pipeline::predict_proba` on every held-out row: the imperative
    /// reference, computed here and never by the compiler under test.
    pub reference: Tensor<f32>,
}

pub struct Zoo {
    pub data: Vec<Data>,
    /// Dataset-major, algorithm-minor (a fixed order, independent of the seed).
    pub models: Vec<Model>,
}

impl Zoo {
    /// Generates datasets and trains every model from `seed`.
    pub fn generate(seed: u64) -> Zoo {
        let (data, train_sets) = datasets(seed);
        // Costliest first, pulled by two threads; each model's training is
        // itself deterministic, so the thread interleaving does not matter.
        let mut jobs: Vec<(usize, Algo)> = (0..data.len())
            .flat_map(|di| Algo::ALL.map(|a| (di, a)))
            .collect();
        let weight = |a: Algo| match a {
            Algo::LightGbm => 3,
            Algo::XgBoost => 2,
            Algo::RandomForest => 1,
        };
        jobs.sort_by_key(|&(di, a)| std::cmp::Reverse(data[di].rows.shape()[1] * weight(a)));
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while let Some(&(di, algo)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let mseed = mix(seed, 16 + (di * 3 + algo as usize) as u64);
                        let e = train(algo, &train_sets[di], mseed);
                        done.lock()
                            .expect("training log poisoned")
                            .push((di, algo, e));
                    }
                });
            }
        });
        let mut trained = done.into_inner().expect("training log poisoned");
        trained.sort_by_key(|&(di, algo, _)| (di, algo as usize));
        Zoo::assemble(data, trained)
    }

    /// Rebuilds the zoo of `seed` from ensembles saved by [`Zoo::save`]:
    /// held-out rows are generated again, trees are read back.
    pub fn load(seed: u64, dir: &Path) -> Result<Zoo, String> {
        let (data, _) = datasets(seed);
        let mut trained = Vec::new();
        for (di, d) in data.iter().enumerate() {
            for algo in Algo::ALL {
                let path = dir.join(format!("{}-{}.json", d.name, algo.label()));
                let p = io::load(&path).map_err(|e| format!("{}: {e:?}", path.display()))?;
                match p.ops.first() {
                    Some(FittedOp::TreeEnsemble(e)) => trained.push((di, algo, e.clone())),
                    _ => return Err(format!("{}: not a tree ensemble", path.display())),
                }
            }
        }
        Ok(Zoo::assemble(data, trained))
    }

    /// Writes every model's pipeline to `dir` for [`Zoo::load`].
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        for m in &self.models {
            let path = dir.join(format!("{}.json", m.name));
            io::save(&m.pipeline, &path).map_err(|e| format!("{}: {e:?}", path.display()))?;
        }
        Ok(())
    }

    fn assemble(data: Vec<Data>, trained: Vec<(usize, Algo, TreeEnsemble)>) -> Zoo {
        let models = trained
            .into_iter()
            .map(|(di, algo, ensemble)| {
                let pipeline = Pipeline::from_op(FittedOp::TreeEnsemble(ensemble.clone()));
                Model {
                    name: format!("{}-{}", data[di].name, algo.label()),
                    data: di,
                    algo,
                    reference: pipeline.predict_proba(&data[di].rows),
                    pipeline,
                    ensemble,
                }
            })
            .collect();
        Zoo { data, models }
    }

    /// Digest of every model's trees and every held-out row.
    pub fn digest(&self, h: &mut Fnv) {
        for d in &self.data {
            h.str(d.name);
            h.f32s(d.rows.as_slice());
        }
        for m in &self.models {
            h.str(&m.name);
            for t in &m.ensemble.trees {
                h.u64(t.left.len() as u64);
                for (&l, &r) in t.left.iter().zip(&t.right) {
                    h.u64(((l as u32 as u64) << 32) | r as u32 as u64);
                }
                for &f in &t.feature {
                    h.u64(u64::from(f));
                }
                h.f32s(&t.threshold);
                // The pipeline's JSON form drops the sign of a zero leaf
                // value, so replicas that load it see +0 for -0.
                let values: Vec<f32> = t.values.iter().map(|&v| v + 0.0).collect();
                h.f32s(&values);
            }
        }
    }

    /// `rows` consecutive held-out rows of dataset `data` starting at
    /// `start`, as a contiguous `[rows, features]` tensor.
    pub fn slice(&self, data: usize, start: usize, rows: usize) -> Tensor<f32> {
        self.data[data]
            .rows
            .slice(0, start, start + rows)
            .to_contiguous()
    }

    /// The reference answer for the same rows.
    pub fn expected(&self, model: usize, start: usize, rows: usize) -> Tensor<f32> {
        self.models[model]
            .reference
            .slice(0, start, start + rows)
            .to_contiguous()
    }
}

/// Held-out rows of every dataset, and the training split each model
/// is fitted on, all drawn from `seed`.
fn datasets(seed: u64) -> (Vec<Data>, Vec<Dataset>) {
    DATASETS
        .iter()
        .enumerate()
        .map(|(di, (name, train_rows))| {
            let spec = TREE_BENCH_SPECS
                .iter()
                .find(|s| s.name == *name)
                .expect("dataset spec exists");
            let dseed = mix(seed, di as u64);
            // `tree_bench_dataset` keeps 4/5 of its rows for training.
            let train = tree_bench_dataset(spec, train_rows * 5 / 4, dseed);
            let held = tree_bench_dataset(spec, HELD_OUT_ROWS, mix(dseed, 1));
            let mut rows = held.x_train.to_vec();
            rows.extend(held.x_test.to_vec());
            let data = Data {
                name,
                rows: Tensor::from_vec(rows, &[HELD_OUT_ROWS, spec.features]),
            };
            (data, train)
        })
        .unzip()
}

fn train(algo: Algo, ds: &Dataset, seed: u64) -> TreeEnsemble {
    let y = ds.y_train.classes();
    // A multiclass booster grows one tree per class per round; keep every
    // model near the same tree budget.
    let per_round = match ds.task {
        Task::Multiclass(c) => c,
        _ => 1,
    };
    let gbdt = |base: GbdtConfig| {
        GradientBoostingClassifier::new(GbdtConfig {
            n_rounds: TREES.div_ceil(per_round),
            seed,
            ..base
        })
        .fit(&ds.x_train, y)
        .ensemble
    };
    match algo {
        Algo::RandomForest => {
            RandomForestClassifier::new(ForestConfig {
                n_trees: TREES,
                max_depth: 8,
                seed,
                ..ForestConfig::default()
            })
            .fit(&ds.x_train, y)
            .ensemble
        }
        // Leaf-wise growth must go deeper than 10 levels, so that `Auto`
        // compiles the model as TreeTraversal at batch 10K; the rare seed
        // whose trees stay shallower is retrained with more leaves.
        Algo::LightGbm => {
            let mut leaves = 40;
            loop {
                let e = gbdt(GbdtConfig {
                    max_depth: 16,
                    max_leaves: leaves,
                    ..GbdtConfig::lightgbm_like()
                });
                if e.max_depth() > 10 || leaves >= 80 {
                    break e;
                }
                leaves += 8;
            }
        }
        Algo::XgBoost => gbdt(GbdtConfig {
            max_depth: 3,
            ..GbdtConfig::xgboost_like()
        }),
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded generator for schedules (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// FNV-1a, 64 bit: the determinism digest.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
