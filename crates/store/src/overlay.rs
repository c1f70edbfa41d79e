//! Logical row overlays — the executor-side view of a live-ingest
//! delta segment.
//!
//! Base [`crate::table::Table`]s inside an engine snapshot stay
//! immutable at serve time; rows inserted after the build land in a
//! [`TableOverlay`] that the executor appends *logically* to the base
//! table's row set. Queries that pin one overlay generation therefore
//! see exactly {frozen rows} ∪ {that generation's overlay rows} — a
//! half-applied batch is unobservable because an overlay value is never
//! mutated in place, only replaced wholesale by its successor.
//!
//! Cloning a generation is cheap by construction: rows frozen by a
//! delta merge live in sealed [`Arc`] chunks shared across generations,
//! and only the small unsealed tail (bounded by the engine's merge
//! threshold) is deep-copied per insert.

use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Extra rows logically appended to catalog tables.
#[derive(Debug, Clone, Default)]
pub struct TableOverlay {
    tables: HashMap<String, OverlayRows>,
}

/// One table's overlay rows: sealed shared chunks + a mutable tail.
#[derive(Debug, Clone, Default)]
struct OverlayRows {
    /// Chunks frozen by [`TableOverlay::seal`]; `Arc`-shared across
    /// overlay generations, never mutated again.
    chunks: Vec<Arc<Vec<Vec<Value>>>>,
    /// Unsealed rows, deep-cloned when a generation is cloned.
    tail: Vec<Vec<Value>>,
}

impl OverlayRows {
    fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum::<usize>() + self.tail.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
            .map(Vec::as_slice)
    }
}

impl TableOverlay {
    /// An overlay with no rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one row to `table`'s unsealed tail. The row must be a
    /// full schema-order tuple; the executor rejects width mismatches
    /// at query time.
    pub fn push_row(&mut self, table: &str, row: Vec<Value>) {
        self.tables
            .entry(table.to_string())
            .or_default()
            .tail
            .push(row);
    }

    /// Freezes every table's unsealed tail into a shared chunk, so
    /// subsequent generation clones stop deep-copying those rows. The
    /// engine calls this when a delta merge publishes.
    pub fn seal(&mut self) {
        for rows in self.tables.values_mut() {
            if !rows.tail.is_empty() {
                let tail = std::mem::take(&mut rows.tail);
                rows.chunks.push(Arc::new(tail));
            }
        }
    }

    /// The overlay rows for `table`, oldest first.
    pub fn rows_for(&self, table: &str) -> impl Iterator<Item = &[Value]> + '_ {
        self.tables
            .get(table)
            .into_iter()
            .flat_map(OverlayRows::iter)
    }

    /// Number of overlay rows for `table`.
    pub fn len_for(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, OverlayRows::len)
    }

    /// Number of rows still in unsealed tails (not yet frozen by a
    /// merge) across all tables.
    pub fn unsealed_len(&self) -> usize {
        self.tables.values().map(|r| r.tail.len()).sum()
    }

    /// Total overlay rows across all tables.
    pub fn total_len(&self) -> usize {
        self.tables.values().map(OverlayRows::len).sum()
    }

    /// True when no table has overlay rows.
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(|r| r.len() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::text(&format!("r{i}"))]
    }

    #[test]
    fn push_seal_and_iterate_in_order() {
        let mut o = TableOverlay::new();
        assert!(o.is_empty());
        o.push_row("reviews", row(1));
        o.push_row("reviews", row(2));
        o.seal();
        o.push_row("reviews", row(3));
        assert_eq!(o.len_for("reviews"), 3);
        assert_eq!(o.unsealed_len(), 1);
        assert_eq!(o.total_len(), 3);
        let ids: Vec<i64> = o
            .rows_for("reviews")
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, [1, 2, 3], "oldest first, sealed before tail");
        assert_eq!(o.rows_for("absent").count(), 0);
        assert_eq!(o.len_for("absent"), 0);
    }

    #[test]
    fn generation_clones_share_sealed_chunks() {
        let mut o = TableOverlay::new();
        o.push_row("reviews", row(1));
        o.seal();
        let next = o.clone();
        let a = o.tables["reviews"].chunks[0].as_ptr();
        let b = next.tables["reviews"].chunks[0].as_ptr();
        assert_eq!(a, b, "sealed chunks are Arc-shared, not deep-copied");
    }

    #[test]
    fn sealing_an_empty_tail_adds_no_chunk() {
        let mut o = TableOverlay::new();
        o.push_row("reviews", row(1));
        o.seal();
        o.seal();
        assert_eq!(o.tables["reviews"].chunks.len(), 1);
    }
}
