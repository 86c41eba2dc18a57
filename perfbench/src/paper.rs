//! `paper_log_err`: how far the reproduction sits from the paper's
//! Figures 13 (vs Eyeriss) and 18 (vs Stripes).

use bitfusion::dnn::zoo::Benchmark;
use bitfusion::service::protocol::CompareReply;
use bitfusion_bench::paper;

/// The four measured ratios of one network, in the order of
/// [`paper_ratios`]: Fig 13 speedup, Fig 13 energy, Fig 18 speedup,
/// Fig 18 energy. `None` when the reply lacks a baseline.
pub fn measured_ratios(reply: &CompareReply) -> Option<[f64; 4]> {
    let baseline = |name: &str| reply.baselines.iter().find(|b| b.name == name);
    let eyeriss = baseline("eyeriss")?;
    let stripes = baseline("stripes")?;
    Some([
        eyeriss.speedup,
        eyeriss.energy_ratio?,
        stripes.speedup,
        stripes.energy_ratio?,
    ])
}

/// The paper's four ratios for one network.
pub fn paper_ratios(b: Benchmark) -> [f64; 4] {
    let (fig18_speedup, fig18_energy) = paper::fig18(b);
    [
        paper::fig13_speedup(b),
        paper::fig13_energy(b),
        fig18_speedup,
        fig18_energy,
    ]
}

/// Mean |ln(measured / paper)| over every network and ratio given.
///
/// # Panics
///
/// On an empty input.
pub fn log_err(rows: &[(Benchmark, [f64; 4])]) -> f64 {
    assert!(!rows.is_empty(), "paper_log_err needs at least one network");
    let total: f64 = rows
        .iter()
        .flat_map(|(b, measured)| {
            measured
                .iter()
                .zip(paper_ratios(*b))
                .map(|(m, p)| (m / p).ln().abs())
        })
        .sum();
    total / (4 * rows.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_reproduction_scores_zero() {
        let rows: Vec<_> = Benchmark::ALL
            .iter()
            .map(|&b| (b, paper_ratios(b)))
            .collect();
        assert_eq!(log_err(&rows), 0.0);
    }

    #[test]
    fn over_and_under_estimates_both_count() {
        // AlexNet paper ratios: 1.9, 1.5 (Fig 13); 1.8, 2.7 (Fig 18).
        let alexnet = [1.9 * 2.0, 1.5 / 2.0, 1.8, 2.7];
        let err = log_err(&[(Benchmark::AlexNet, alexnet)]);
        assert!((err - 2.0 * 2f64.ln() / 4.0).abs() < 1e-12, "{err}");
        // A second, exact network halves the mean.
        let rows = [
            (Benchmark::AlexNet, alexnet),
            (Benchmark::Lstm, paper_ratios(Benchmark::Lstm)),
        ];
        assert!((log_err(&rows) - 2f64.ln() / 4.0).abs() < 1e-12);
    }

    #[test]
    fn reads_the_eyeriss_and_stripes_rows_of_a_compare_reply() {
        let reply = bitfusion::service::Response::parse(
            r#"{"reply":"compare","benchmark":"LSTM","batch":16,"backend":"analytic","latency_ms_per_input":1.0,"energy_per_input":{"compute_pj":1.0,"buffer_pj":1.0,"rf_pj":1.0,"dram_pj":1.0},"baselines":[{"name":"eyeriss","speedup":2.4,"energy_ratio":4.8},{"name":"stripes","speedup":2.1,"energy_ratio":3.1},{"name":"tegra-x2","speedup":9.0}]}"#,
        );
        let Ok(bitfusion::service::Response::Compare(reply)) = reply else {
            panic!("fixture parses: {reply:?}");
        };
        let measured = measured_ratios(&reply).unwrap();
        assert_eq!(measured, [2.4, 4.8, 2.1, 3.1]);
        assert_eq!(log_err(&[(Benchmark::Lstm, measured)]), 0.0);
    }
}
