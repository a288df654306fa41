//! `SELECT * … SKYLINE OF <cols>` — §4.4 Example #6.
//!
//! The switch stores a bounded set of projection champions and forwards
//! entries not dominated by them; the master runs the exact pairwise
//! dominance check on the survivors' true coordinates.

use super::{encode_i64_32, PruningOperator, Survivors};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::ops;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{QuerySpec, SkylineConfig, SkylinePolicy};

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

    /// Every dimension column of `part` as a raw slice, resolved once per
    /// partition.
    fn dims<'t>(&self, part: &'t Partition) -> Vec<&'t [i64]> {
        self.cols.iter().map(|&c| part.column(c).as_int().expect("int skyline col")).collect()
    }
}

impl PruningOperator for SkylineOp<'_> {
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

    fn encode_part(&self, _stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        let dims = self.dims(part);
        let mut slots = vec![0u64; dims.len()];
        for r in 0..part.rows() {
            for (out, dim) in slots.iter_mut().zip(&dims) {
                *out = encode_i64_32(dim[r]);
            }
            sink(&slots);
        }
    }

    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        let mut pts: Vec<Vec<i64>> = Vec::with_capacity(survivors.count() as usize);
        for (part, sel) in survivors.parts(src, 0) {
            let dims = self.dims(part);
            pts.extend(sel.iter().map(|&r| dims.iter().map(|dim| dim[r as usize]).collect()));
        }
        QueryOutput::points(ops::skyline_of(&pts))
    }
}
