//! `SELECT * … SKYLINE OF <cols>` — §4.4 Example #6.
//!
//! The switch stores a bounded set of projection champions and forwards
//! entries not dominated by them; the master runs the exact pairwise
//! dominance check on the survivors' true coordinates.

use super::encode_i64_32;
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::ops;
use crate::query::QueryOutput;
use cheetah_core::{PruningOperator, QuerySpec, SkylineConfig, SkylinePolicy};
use cheetah_net::Encoded;

/// The SKYLINE operator.
pub struct SkylineOp<'q> {
    cols: &'q [usize],
    points: usize,
    policy: SkylinePolicy,
}

impl<'q> SkylineOp<'q> {
    /// Skyline over int columns `cols` with the cluster's tuning.
    pub fn new(cols: &'q [usize], tuning: &CheetahTuning) -> Self {
        Self { cols, points: tuning.skyline_points, policy: tuning.skyline_policy }
    }
}

impl<'a, 'q> PruningOperator<Tables<'a>, Encoded> for SkylineOp<'q> {
    type Output = QueryOutput;

    fn kind(&self) -> &'static str {
        "skyline"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::Skyline(SkylineConfig {
            dims: self.cols.len(),
            points: self.points,
            policy: self.policy,
            packed: true,
        }))
    }

    fn encode_part(
        &self,
        src: &Tables<'a>,
        stream: usize,
        part: usize,
        rows: usize,
        sink: &mut dyn FnMut(&[u64]),
    ) {
        // Resolve every dimension column to a raw slice once per
        // partition.
        let p = super::stream_part(src, stream, part);
        let cols: Vec<&[i64]> =
            self.cols.iter().map(|&c| p.column(c).as_int().expect("int skyline col")).collect();
        let mut slots = vec![0u64; cols.len()];
        for r in 0..rows {
            for (out, col) in slots.iter_mut().zip(&cols) {
                *out = encode_i64_32(col[r]);
            }
            sink(&slots);
        }
    }

    fn complete(&self, src: &Tables<'a>, survivors: &[Vec<Encoded>]) -> QueryOutput {
        let pts: Vec<Vec<i64>> = survivors[0]
            .iter()
            .map(|e| {
                let (pi, r) = e.id();
                let p = &src.left.partitions()[pi];
                self.cols
                    .iter()
                    .map(|&c| p.column(c).as_int().expect("int skyline col")[r])
                    .collect()
            })
            .collect();
        QueryOutput::points(ops::skyline_of(&pts))
    }
}
