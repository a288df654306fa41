//! One module per paper artifact, plus the design-choice ablations and
//! the repository's own report-only experiments.

pub mod ablations;
pub mod census;
pub mod fabric;
pub mod fig10;
pub mod fig11;
pub mod fig12_13;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod shards;
pub mod table2;
pub mod table3;

use crate::{Report, RunCtx};

/// An experiment entry point: run context in, one report per panel out.
pub type ExperimentFn = fn(&RunCtx) -> Vec<Report>;

/// Every experiment, in paper order: `(id, runner)`.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table2", table2::run as ExperimentFn),
        ("table3", table3::run),
        ("fig5", fig5::run),
        ("fig6", fig6::run),
        ("fig7", fig7::run),
        ("fig8", fig8::run),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12_13", fig12_13::run),
        ("ablations", ablations::run),
        ("shards", shards::run),
        ("fabric", fabric::run),
        ("census", census::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_artifact() {
        let ids: Vec<&str> = all().iter().map(|(id, _)| *id).collect();
        for want in [
            "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12_13", "shards", "fabric", "census",
        ] {
            assert!(ids.contains(&want), "missing experiment {want}");
        }
    }
}
