//! Per-execution counters: parsed from `QueryReply::summary` (the one
//! line a TCP reply carries besides `wall_s`) or copied from a structured
//! `ExecMetrics` when the benchmark drives the scheduler in-process.

use skalla_core::ExecMetrics;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    pub wall_s: f64,
    pub rounds: f64,
    pub bytes_down: f64,
    pub bytes_up: f64,
    pub modeled_s: f64,
    /// Σ over rounds of the slowest site's compute (the critical path).
    pub site_max_s: f64,
    pub coord_s: f64,
    pub comm_s: f64,
    pub blocks_compiled: f64,
    pub blocks_interpreted: f64,
    pub segments_scanned: f64,
    pub segments_pruned: f64,
    pub blocks_verified: f64,
    pub sync_decode_s: f64,
    pub sync_merge_s: f64,
    pub sync_finalize_s: f64,
    /// Not in the summary line; zero when parsed from one.
    pub site_total_s: f64,
    pub rows_up: f64,
    pub messages: f64,
    pub groups: f64,
}

impl ExecStats {
    pub fn from_metrics(m: &ExecMetrics) -> ExecStats {
        ExecStats {
            wall_s: m.wall_s,
            rounds: m.num_rounds() as f64,
            bytes_down: m.total_bytes_down() as f64,
            bytes_up: m.total_bytes_up() as f64,
            modeled_s: m.modeled_time_s(),
            site_max_s: m.site_compute_s(),
            coord_s: m.coord_compute_s(),
            comm_s: m.comm_s(),
            blocks_compiled: m.total_blocks_compiled() as f64,
            blocks_interpreted: m.total_blocks_interpreted() as f64,
            segments_scanned: m.total_segments_scanned() as f64,
            segments_pruned: m.total_segments_pruned() as f64,
            blocks_verified: m.total_blocks_verified() as f64,
            sync_decode_s: m.sync_decode_s(),
            sync_merge_s: m.sync_merge_s(),
            sync_finalize_s: m.sync_finalize_s(),
            site_total_s: m.rounds.iter().map(|r| r.site_compute_total_s).sum(),
            rows_up: m.total_rows_up() as f64,
            messages: m.total_messages() as f64,
            groups: m.rounds.last().map_or(0.0, |r| r.groups as f64),
        }
    }

    /// Parse `ExecMetrics::summary()`, e.g.
    /// `2 rounds | 420 B down, 67504 B up | modeled 0.0780s (site 0.0578s,
    /// coord 0.0027s, comm 0.0174s) | wall 0.1041s | blocks: 0 compiled,
    /// 4 interpreted | sync: decode 0.0006s, merge 0.0017s, finalize
    /// 0.0004s | …`. Sections it does not know are skipped; `None` when
    /// the leading rounds/bytes/modeled sections are missing.
    pub fn from_summary(line: &str) -> Option<ExecStats> {
        let mut st = ExecStats::default();
        let mut sections = line.split(" | ");
        st.rounds = sections.next()?.strip_suffix(" rounds")?.parse().ok()?;
        let bytes = sections.next()?;
        let (down, up) = bytes.split_once(", ")?;
        st.bytes_down = down.strip_suffix(" B down")?.parse().ok()?;
        st.bytes_up = up.strip_suffix(" B up")?.parse().ok()?;
        let modeled = sections.next()?.strip_prefix("modeled ")?;
        let (total, parts) = modeled.split_once(" (")?;
        st.modeled_s = secs(total)?;
        let nums = numbers(parts.strip_suffix(')')?, &["site", "coord", "comm"])?;
        (st.site_max_s, st.coord_s, st.comm_s) = (nums[0], nums[1], nums[2]);
        for sec in sections {
            if let Some(w) = sec.strip_prefix("wall ") {
                st.wall_s = secs(w)?;
            } else if let Some(b) = sec.strip_prefix("blocks: ") {
                let (c, i) = b.split_once(", ")?;
                st.blocks_compiled = c.strip_suffix(" compiled")?.parse().ok()?;
                st.blocks_interpreted = i.strip_suffix(" interpreted")?.parse().ok()?;
            } else if let Some(s) = sec.strip_prefix("segments: ") {
                let (sc, pr) = s.split_once(", ")?;
                st.segments_scanned = sc.strip_suffix(" scanned")?.parse().ok()?;
                st.segments_pruned = pr.strip_suffix(" pruned")?.parse().ok()?;
            } else if let Some(i) = sec.strip_prefix("integrity: ") {
                let verified = i.split_once(" blocks verified")?.0;
                st.blocks_verified = verified.parse().ok()?;
            } else if let Some(s) = sec.strip_prefix("sync: ") {
                // A sharded pool appends " (N workers × …)"; keep the times.
                let times = s.split(" (").next()?;
                let nums = numbers(times, &["decode", "merge", "finalize"])?;
                (st.sync_decode_s, st.sync_merge_s, st.sync_finalize_s) =
                    (nums[0], nums[1], nums[2]);
            }
        }
        Some(st)
    }
}

/// `"0.0123s"` → 0.0123.
fn secs(s: &str) -> Option<f64> {
    s.strip_suffix('s')?.parse().ok()
}

/// `"site 0.1s, coord 0.2s, comm 0.3s"` with the given labels in order.
fn numbers(s: &str, labels: &[&str]) -> Option<Vec<f64>> {
    let items: Vec<&str> = s.split(", ").collect();
    if items.len() != labels.len() {
        return None;
    }
    items
        .iter()
        .zip(labels)
        .map(|(item, label)| secs(item.strip_prefix(label)?.trim_start()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_core::RoundMetrics;

    #[test]
    fn parses_an_in_memory_miss() {
        let line = "2 rounds | 420 B down, 67504 B up | modeled 0.0780s (site 0.0578s, \
                    coord 0.0027s, comm 0.0174s) | wall 0.1041s | blocks: 0 compiled, \
                    4 interpreted | sync: decode 0.0006s, merge 0.0017s, finalize 0.0004s \
                    | cache: 0 hit(s), 1 miss(es)";
        let st = ExecStats::from_summary(line).unwrap();
        assert_eq!(st.rounds, 2.0);
        assert_eq!((st.bytes_down, st.bytes_up), (420.0, 67504.0));
        assert_eq!(st.modeled_s, 0.0780);
        assert_eq!(
            (st.site_max_s, st.coord_s, st.comm_s),
            (0.0578, 0.0027, 0.0174)
        );
        assert_eq!(st.wall_s, 0.1041);
        assert_eq!((st.blocks_compiled, st.blocks_interpreted), (0.0, 4.0));
        assert_eq!(
            (st.sync_decode_s, st.sync_merge_s, st.sync_finalize_s),
            (0.0006, 0.0017, 0.0004)
        );
        assert_eq!((st.segments_scanned, st.blocks_verified), (0.0, 0.0));
    }

    #[test]
    fn parses_segment_integrity_and_sharded_sync_sections() {
        let line = "1 rounds | 10 B down, 20 B up | modeled 1.5000s (site 1.0000s, coord \
                    0.2500s, comm 0.2500s) | wall 2.0000s | segments: 12 scanned, 36 pruned \
                    | integrity: 240 blocks verified, 0 checksum failure(s) | sync: decode \
                    0.1000s, merge 0.0500s, finalize 0.1000s (2 workers × 8 shards, 90% busy, \
                    1.10× imbalance)";
        let st = ExecStats::from_summary(line).unwrap();
        assert_eq!((st.segments_scanned, st.segments_pruned), (12.0, 36.0));
        assert_eq!(st.blocks_verified, 240.0);
        assert_eq!(st.sync_merge_s, 0.05);
        assert_eq!(st.wall_s, 2.0);
    }

    #[test]
    fn parses_a_cache_hit_and_rejects_garbage() {
        let hit = "0 rounds | 0 B down, 0 B up | modeled 0.0000s (site 0.0000s, coord \
                   0.0000s, comm 0.0000s) | wall 0.0000s | cache: 1 hit(s), 0 miss(es)";
        let st = ExecStats::from_summary(hit).unwrap();
        assert_eq!((st.rounds, st.bytes_up, st.modeled_s), (0.0, 0.0, 0.0));
        assert_eq!(ExecStats::from_summary("not a summary"), None);
        assert_eq!(ExecStats::from_summary("2 rounds | 1 B down"), None);
    }

    #[test]
    fn summary_of_real_metrics_round_trips() {
        let m = ExecMetrics {
            rounds: vec![RoundMetrics {
                bytes_down: 100,
                bytes_up: 2500,
                site_compute_max_s: 0.012,
                coord_compute_s: 0.003,
                comm_modeled_s: 0.004,
                blocks_compiled: 3,
                blocks_interpreted: 1,
                sync_workers: 1,
                sync_merge_s: 0.002,
                ..RoundMetrics::default()
            }],
            wall_s: 0.05,
            ..ExecMetrics::default()
        };
        let parsed = ExecStats::from_summary(&m.summary()).unwrap();
        let direct = ExecStats::from_metrics(&m);
        assert_eq!(parsed.bytes_up, direct.bytes_up);
        assert_eq!(parsed.site_max_s, direct.site_max_s);
        assert_eq!(parsed.modeled_s, direct.modeled_s);
        assert_eq!(parsed.blocks_compiled, direct.blocks_compiled);
        assert_eq!(parsed.sync_merge_s, direct.sync_merge_s);
        assert_eq!(parsed.wall_s, direct.wall_s);
    }
}
