//! Seeded request generation. Every workload's inputs are a pure function
//! of `--seed`; the program under test only ever sees the request lines.

use std::collections::HashSet;

use bitfusion::compiler::cache::fingerprint;
use bitfusion::dnn::model::Model;
use bitfusion::dnn::modern::{attention_block_example, depthwise_net_example};
use bitfusion::dnn::quantspec::QuantSpec;
use bitfusion::dnn::schema::export_model;
use bitfusion::dnn::zoo::Benchmark;
use bitfusion::service::json::Json;
use bitfusion::service::protocol::{ArchPreset, ModelSource, SweepAxis};
use bitfusion::service::Request;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The warm key set `serve_hot` and `serve_connect` draw from: `report`
/// on both presets, `compare`, bandwidth `sweep` and `quantize` for every
/// zoo network — 40 canonical request lines.
pub fn hot_keys() -> Vec<String> {
    let mut keys = Vec::new();
    for b in Benchmark::ALL {
        let model = || ModelSource::zoo(b.name());
        for arch in [ArchPreset::Isca45nm, ArchPreset::Gpu16nm] {
            keys.push(Request::Report {
                model: model(),
                batch: 16,
                bandwidth: None,
                arch,
                backend: None,
                quant: None,
            });
        }
        keys.push(Request::Compare {
            model: model(),
            batch: 16,
            backend: None,
            quant: None,
        });
        keys.push(Request::Sweep {
            model: model(),
            axis: SweepAxis::Bandwidth,
            backend: None,
            quant: None,
        });
        keys.push(Request::Quantize {
            model: model(),
            quant: None,
        });
    }
    keys.iter().map(Request::encode).collect()
}

/// The `compare` request `paper_log_err` reads for one network.
pub fn compare_request(b: Benchmark) -> Request {
    Request::Compare {
        model: ModelSource::zoo(b.name()),
        batch: 16,
        backend: None,
        quant: None,
    }
}

/// One connection's seeded draw of key indices.
#[derive(Debug, Clone)]
pub struct KeyDraw {
    rng: Rng,
    keys: u64,
}

impl KeyDraw {
    /// The draw for connection `conn` of a run seeded with `seed`.
    pub fn new(seed: u64, conn: u64, keys: usize) -> Self {
        KeyDraw {
            rng: Rng::new(seed, 1 + conn),
            keys: keys as u64,
        }
    }

    /// The next key index.
    pub fn next_index(&mut self) -> usize {
        self.rng.below(self.keys) as usize
    }
}

/// Largest batch of a churn request on the event backend. Event
/// simulation grows with the batch (AlexNet at batch 256 took 12–45 ms
/// against at most 3 ms up to 16), so larger batches would let a handful
/// of event requests set the run's p99 and its seed-to-seed spread.
const EVENT_MAX_BATCH: u64 = 16;

/// Input widths a churn clause picks from.
const INPUT_BITS: [u32; 3] = [2, 4, 8];
/// Weight widths a churn clause picks from.
const WEIGHT_BITS: [u32; 4] = [1, 2, 4, 8];

/// A model a churn request can name: a zoo benchmark, or an inline
/// `bitfusion-model/1` document.
struct ChurnSource {
    /// The request's model field, already encoded.
    wire: String,
    /// The model the session quantizes (zoo: paper assignment; inline: the
    /// document as parsed).
    base: Model,
    /// Multiplying layer kinds present, in first-seen order.
    kinds: Vec<&'static str>,
}

impl ChurnSource {
    fn new(wire: String, base: Model) -> Self {
        let mut kinds: Vec<&'static str> = Vec::new();
        for l in base.mac_layers() {
            let k = l.layer.kind();
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
        ChurnSource { wire, base, kinds }
    }
}

/// One generated `serve_churn` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnRequest {
    /// The wire line (no newline).
    pub line: String,
    /// Its compile key: (model fingerprint after quantization, batch).
    /// The architecture is fixed, so this is the whole artifact key.
    pub key: (u64, u64),
}

/// The `serve_churn` stream: `report` requests whose compile keys never
/// repeat. Each carries a seeded batch in 1..=256 and a seeded per-kind
/// quant clause list; about one in four names its model by an inline
/// document instead of a zoo name. About one in sixteen asks for the
/// event backend, with a batch of at most [`EVENT_MAX_BATCH`], so
/// segment-program compile and replay run on the request path too.
pub struct ChurnGen {
    rng: Rng,
    zoo: Vec<ChurnSource>,
    inline: Vec<ChurnSource>,
    seen: HashSet<(u64, u64)>,
}

impl ChurnGen {
    /// The stream of a run seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let zoo = Benchmark::ALL
            .iter()
            .map(|b| ChurnSource::new(Json::Str(b.name().to_string()).encode(), b.model()))
            .collect();
        let inline = Benchmark::ALL
            .iter()
            .map(|b| b.topology())
            .chain([attention_block_example(), depthwise_net_example()])
            .map(|m| ChurnSource::new(export_model(&m).encode(), m))
            .collect();
        ChurnGen {
            rng: Rng::new(seed, 0xc4u64 << 32),
            zoo,
            inline,
            seen: HashSet::new(),
        }
    }

    fn clauses(&mut self, kinds: &[&str]) -> String {
        let mut clauses = Vec::new();
        let pair = |rng: &mut Rng| {
            format!(
                "{}/{}",
                INPUT_BITS[rng.below(INPUT_BITS.len() as u64) as usize],
                WEIGHT_BITS[rng.below(WEIGHT_BITS.len() as u64) as usize]
            )
        };
        if self.rng.below(4) == 0 {
            clauses.push(format!("default={}", pair(&mut self.rng)));
        }
        for kind in kinds {
            if self.rng.below(2) == 0 {
                clauses.push(format!("{kind}={}", pair(&mut self.rng)));
            }
        }
        if clauses.is_empty() {
            "paper".to_string()
        } else {
            clauses.join(",")
        }
    }

    /// The next request with a compile key this stream has not produced.
    pub fn next_request(&mut self) -> ChurnRequest {
        loop {
            let inline = self.rng.below(4) == 0;
            let (field, pool) = if inline {
                ("model", &self.inline)
            } else {
                ("benchmark", &self.zoo)
            };
            let idx = self.rng.below(pool.len() as u64) as usize;
            let kinds = pool[idx].kinds.clone();
            let quant = self.clauses(&kinds);
            let event = self.rng.below(16) == 0;
            let batch = 1 + self.rng.below(if event { EVENT_MAX_BATCH } else { 256 });
            let pool = if inline { &self.inline } else { &self.zoo };
            let source = &pool[idx];
            let model = QuantSpec::parse(&quant)
                .and_then(|spec| spec.apply(&source.base))
                .expect("generated clauses name only kinds the model has");
            let backend = if event { r#","backend":"event""# } else { "" };
            let key = (fingerprint(&model), batch);
            if self.seen.insert(key) {
                let quant = Json::Str(quant).encode();
                let line = format!(
                    r#"{{"cmd":"report","{field}":{},"batch":{batch},"arch":"45nm"{backend},"quant":{quant}}}"#,
                    source.wire
                );
                return ChurnRequest { line, key };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn(seed: u64, n: usize) -> Vec<ChurnRequest> {
        let mut g = ChurnGen::new(seed);
        (0..n).map(|_| g.next_request()).collect()
    }

    fn draws(seed: u64, conn: u64) -> Vec<usize> {
        let mut d = KeyDraw::new(seed, conn, 40);
        (0..200).map(|_| d.next_index()).collect()
    }

    #[test]
    fn same_seed_same_request_bytes() {
        assert_eq!(churn(7, 300), churn(7, 300));
        assert_eq!(draws(7, 0), draws(7, 0));
    }

    #[test]
    fn different_seed_different_request_bytes() {
        assert_ne!(churn(7, 50), churn(8, 50));
        assert_ne!(draws(7, 0), draws(8, 0));
        assert_ne!(draws(7, 0), draws(7, 1));
    }

    #[test]
    fn churn_compile_keys_never_repeat() {
        let requests = churn(3, 3000);
        let keys: HashSet<_> = requests.iter().map(|r| r.key).collect();
        assert_eq!(keys.len(), requests.len());
        // More unique keys than the 128-entry artifact cache holds.
        assert!(keys.len() > 128);
        let inline = requests
            .iter()
            .filter(|r| r.line.contains(r#""model":"#))
            .count();
        assert!((600..900).contains(&inline), "{inline} inline of 3000");
        let event = requests
            .iter()
            .filter(|r| r.line.contains(r#""backend":"event""#))
            .count();
        assert!(
            (120..260).contains(&event),
            "{event} on the event backend of 3000"
        );
    }

    #[test]
    fn churn_keys_are_the_keys_the_server_compiles() {
        // The generator's key is the fingerprint the session compiles:
        // resolve each request as the session does and compare.
        for r in churn(11, 40) {
            let request = Request::parse(&r.line).expect("generated lines parse");
            let Request::Report {
                model,
                batch,
                quant,
                ..
            } = request
            else {
                panic!("churn sends report requests");
            };
            let base = match model {
                ModelSource::Zoo(name) => bitfusion::service::session::find_benchmark(&name)
                    .expect("zoo name")
                    .model(),
                ModelSource::External(m) => m,
            };
            let spec = QuantSpec::parse(quant.as_deref().expect("churn sets quant")).unwrap();
            let model = spec.apply(&base).unwrap();
            assert_eq!((fingerprint(&model), batch), r.key);
        }
    }

    #[test]
    fn hot_keys_are_forty_distinct_requests() {
        let keys = hot_keys();
        assert_eq!(keys.len(), 40);
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), 40);
        for k in &keys {
            assert_eq!(&Request::parse(k).unwrap().encode(), k);
        }
    }
}
