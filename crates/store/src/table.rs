//! Columnar table storage with key lookup.
//!
//! Rows are decomposed into one [`ColumnData`] per schema column on
//! insert; readers get them back through the zero-allocation
//! [`RowView`] adapter, so everything above the storage layer (parser,
//! AST, executor surface) is untouched by the row-major → columnar
//! switch. The payoff is in the executor: objective comparisons run
//! vectorized over typed column vectors
//! ([`ColumnData::compare_bitmap`]) instead of row-at-a-time `Value`
//! dispatch.

use crate::bitmap::Bitmap;
use crate::column::ColumnData;
use crate::json::{RenderedCells, RenderedRow};
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use crate::StoreError;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, RwLock};

/// Entries kept in a table's selection-vector cache.
const FILTER_CACHE_CAP: usize = 64;

/// A small bounded FIFO cache of selection bitmaps, keyed by the
/// canonical rendering of the objective conjunct that produced them.
///
/// Re-running the paper's `price_pn < 150 and "clean rooms"` should not
/// re-scan the price column every time: the vectorized comparison is
/// O(rows) per conjunct, while a warm hit is a hash probe + `Arc`
/// clone. A bitmap is exact for the rows the table held when it was
/// built, so [`Table::insert`] drops them all; catalog tables are never
/// inserted into once assembled (serve-time INSERTs ride the overlay).
#[derive(Debug, Default)]
struct FilterCache {
    inner: RwLock<FilterCacheInner>,
}

#[derive(Debug, Default)]
struct FilterCacheInner {
    map: HashMap<String, Arc<Bitmap>>,
    order: VecDeque<String>,
}

impl Clone for FilterCache {
    /// Cloned tables start with a cold cache — the bitmaps would be
    /// valid, but sharing the lock across clones buys nothing.
    fn clone(&self) -> Self {
        FilterCache::default()
    }
}

/// An in-memory table: schema + typed columns + a key index.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<ColumnData>,
    len: usize,
    key_index: HashMap<String, usize>,
    filters: FilterCache,
    /// Every cell rendered as JSON, once the table is frozen
    /// ([`Table::render_json`]); shared by clones, dropped by an insert.
    rendered: Option<Arc<RenderedCells>>,
}

/// A borrowed view of one stored row.
///
/// The row-view adapter over columnar storage: `get` reads straight
/// from the typed column vectors, so no row `Vec<Value>` exists unless
/// a caller explicitly materializes one with [`RowView::to_values`].
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    table: &'a Table,
    row: usize,
}

impl<'a> RowView<'a> {
    /// Cell `col` of this row.
    #[inline]
    pub fn get(&self, col: usize) -> ValueRef<'a> {
        self.table.columns[col].value_ref(self.row)
    }

    /// Number of cells (the table's column count).
    pub fn len(&self) -> usize {
        self.table.columns.len()
    }

    /// True for a zero-column table.
    pub fn is_empty(&self) -> bool {
        self.table.columns.is_empty()
    }

    /// This row's position in the table.
    pub fn index(&self) -> usize {
        self.row
    }

    /// Cells in column order.
    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'a>> + '_ {
        (0..self.len()).map(|c| self.get(c))
    }

    /// Materializes the row as owned values.
    pub fn to_values(&self) -> Vec<Value> {
        self.iter().map(|v| v.to_value()).collect()
    }

    /// The row's cells as JSON, when the table holds them rendered
    /// ([`Table::render_json`]).
    pub fn rendered(&self) -> Option<RenderedRow<'a>> {
        Some(self.table.rendered.as_deref()?.row(self.row))
    }
}

impl Table {
    /// Empty table with `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .columns
            .iter()
            .map(|c| ColumnData::for_type(c.ty))
            .collect();
        Self {
            schema,
            columns,
            len: 0,
            key_index: HashMap::new(),
            filters: FilterCache::default(),
            rendered: None,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Inserts a row after checking arity and column types.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), StoreError> {
        if row.len() != self.schema.columns.len() {
            return Err(StoreError::SchemaMismatch(format!(
                "{}: expected {} values, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        for (col, v) in self.schema.columns.iter().zip(&row) {
            if !col.ty.accepts(v) {
                return Err(StoreError::SchemaMismatch(format!(
                    "{}.{}: value {v:?} does not match {:?}",
                    self.schema.name, col.name, col.ty
                )));
            }
        }
        let key = row[self.schema.key].to_string();
        self.key_index.insert(key, self.len);
        for (column, v) in self.columns.iter_mut().zip(row) {
            column.push(v);
        }
        self.len += 1;
        // Every cached selection bitmap, and the rendered cells, are
        // one row short now.
        self.filters = FilterCache::default();
        self.rendered = None;
        Ok(())
    }

    /// Renders every cell to JSON once, with [`crate::json::push_value`],
    /// into one row-major buffer that [`RowView::rendered`] reads from,
    /// so that serving a row copies
    /// its bytes instead of formatting its values. For a table that is
    /// frozen from here on: the next [`Table::insert`] drops the buffer.
    pub fn render_json(&mut self) {
        self.rendered = RenderedCells::of(self).map(Arc::new);
    }

    /// Heap bytes of the rendered cells: the text plus a `u32` offset
    /// per cell and one past the end; 0 before [`Table::render_json`].
    pub fn rendered_bytes(&self) -> usize {
        self.rendered.as_ref().map_or(0, |r| r.memory_bytes())
    }

    /// The selection bitmap cached under `key`, or `build()` evaluated,
    /// cached (bounded, FIFO eviction), and returned. `key` must
    /// determine the bitmap — the executor uses the conjunct's
    /// canonical `Expr` rendering, which is injective.
    pub fn cached_filter(&self, key: &str, build: impl FnOnce() -> Bitmap) -> Arc<Bitmap> {
        let hit = self
            .filters
            .inner
            .read()
            .expect("filter cache lock")
            .map
            .get(key)
            .cloned();
        if let Some(bitmap) = hit {
            return bitmap;
        }
        let built = Arc::new(build());
        let mut guard = self.filters.inner.write().expect("filter cache lock");
        let inner = &mut *guard;
        if let Some(raced) = inner.map.get(key) {
            return raced.clone();
        }
        if inner.map.len() >= FILTER_CACHE_CAP {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(key.to_string(), built.clone());
        inner.order.push_back(key.to_string());
        built
    }

    /// Row views in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> + '_ {
        (0..self.len).map(|row| RowView { table: self, row })
    }

    /// View of the row at position `i`. Panics when out of range.
    pub fn row(&self, i: usize) -> RowView<'_> {
        assert!(i < self.len, "row {i} out of range (len {})", self.len);
        RowView {
            table: self,
            row: i,
        }
    }

    /// Cell at (`row`, `col`) without materializing the row.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.columns[col].value_ref(row)
    }

    /// The typed storage of column `i`.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// Row position with the given key value, if present. Goes through
    /// [`Value::with_key_str`] — the key-formatting path shared with
    /// the engine's entity lookup — so text keys probe the index by
    /// `&str` and other types render into a stack buffer, with no
    /// per-lookup `String` allocation on any hot path.
    pub fn row_of_key(&self, key: &Value) -> Option<usize> {
        key.with_key_str(|s| self.key_index.get(s).copied())
    }

    /// Row position for a key already rendered as its display string.
    pub fn row_of_key_str(&self, key: &str) -> Option<usize> {
        self.key_index.get(key).copied()
    }

    /// Row with the given key value, if present.
    pub fn get_by_key(&self, key: &Value) -> Option<RowView<'_>> {
        self.row_of_key(key).map(|row| RowView { table: self, row })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn table() -> Table {
        Table::new(Schema::new(
            "hotels",
            vec![
                Column::new("name", ColumnType::Text),
                Column::new("price", ColumnType::Float),
            ],
            0,
        ))
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = table();
        t.insert(vec![Value::text("Grand"), Value::Float(120.0)])
            .unwrap();
        assert_eq!(t.len(), 1);
        let row = t.get_by_key(&Value::text("Grand")).unwrap();
        assert_eq!(row.get(1), Value::Float(120.0));
        assert!(t.get_by_key(&Value::text("Missing")).is_none());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        let err = t.insert(vec![Value::text("x")]).unwrap_err();
        assert!(matches!(err, StoreError::SchemaMismatch(_)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Int(1), Value::Float(2.0)])
            .unwrap_err();
        assert!(matches!(err, StoreError::SchemaMismatch(_)));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut t = table();
        t.insert(vec![Value::text("A"), Value::Int(99)]).unwrap();
        // The accepted Int keeps its identity through the columnar
        // storage (the column promotes to Mixed rather than coercing).
        assert_eq!(t.row(0).get(1), Value::Int(99));
    }

    #[test]
    fn duplicate_key_replaces_index_entry() {
        let mut t = table();
        t.insert(vec![Value::text("A"), Value::Float(1.0)]).unwrap();
        t.insert(vec![Value::text("A"), Value::Float(2.0)]).unwrap();
        // Last write wins for key lookup; both rows remain in scan order.
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.get_by_key(&Value::text("A")).unwrap().get(1),
            Value::Float(2.0)
        );
    }

    #[test]
    fn row_views_iterate_in_insertion_order() {
        let mut t = table();
        t.insert(vec![Value::text("A"), Value::Float(1.0)]).unwrap();
        t.insert(vec![Value::text("B"), Value::Null]).unwrap();
        let rows: Vec<Vec<Value>> = t.rows().map(|r| r.to_values()).collect();
        assert_eq!(
            rows,
            vec![
                vec![Value::text("A"), Value::Float(1.0)],
                vec![Value::text("B"), Value::Null],
            ]
        );
        assert_eq!(t.rows().count(), 2);
        assert_eq!(t.row(1).index(), 1);
        assert_eq!(t.row(1).len(), 2);
    }

    #[test]
    fn filter_cache_is_dropped_on_insert() {
        let mut t = table();
        t.insert(vec![Value::text("A"), Value::Float(100.0)])
            .unwrap();
        t.insert(vec![Value::text("B"), Value::Float(200.0)])
            .unwrap();
        let mut builds = 0;
        let build = |t: &Table, builds: &mut i32| {
            let mut b = Bitmap::new(t.len());
            for i in 0..t.len() {
                if t.value(i, 1).as_f64().unwrap() < 150.0 {
                    b.set(i);
                }
            }
            *builds += 1;
            b
        };
        let first = t.cached_filter("price < 150", || build(&t, &mut builds));
        let second = t.cached_filter("price < 150", || build(&t, &mut builds));
        assert_eq!(builds, 1, "second lookup must hit the cache");
        assert!(Arc::ptr_eq(&first, &second));
        // An insert drops the cache: the next lookup misses and builds
        // over every row, the same bits a fresh scan gives.
        t.insert(vec![Value::text("C"), Value::Float(50.0)])
            .unwrap();
        t.insert(vec![Value::text("D"), Value::Float(300.0)])
            .unwrap();
        let rebuilt = t.cached_filter("price < 150", || build(&t, &mut builds));
        assert_eq!(builds, 2, "insert must drop the cached bitmap");
        assert_eq!(
            *rebuilt,
            build(&t, &mut builds),
            "same bits as a fresh scan"
        );
        assert_eq!(rebuilt.count_ones(), 2, "A and C pass the filter");
        let warm = t.cached_filter("price < 150", || build(&t, &mut builds));
        assert_eq!(builds, 3);
        assert!(Arc::ptr_eq(&rebuilt, &warm));
    }

    #[test]
    fn rendered_cells_are_shared_by_clones_and_dropped_on_insert() {
        let mut t = table();
        t.insert(vec![Value::text("A \"B\""), Value::Float(0.5)])
            .unwrap();
        t.insert(vec![Value::text("C"), Value::Null]).unwrap();
        assert!(t.row(0).rendered().is_none());
        assert_eq!(t.rendered_bytes(), 0);
        t.render_json();
        assert_eq!(t.row(0).rendered().unwrap().cells(), r#""A \"B\"",0.5"#);
        assert_eq!(t.row(1).rendered().unwrap().cell(0), r#""C""#);
        assert_eq!(t.row(1).rendered().unwrap().cell(1), "null");
        // 21 bytes of text, five offsets.
        assert_eq!(t.rendered_bytes(), 21 + 5 * 4);
        let clone = t.clone();
        assert_eq!(clone.rendered_bytes(), t.rendered_bytes());
        assert!(std::ptr::eq(
            clone.row(1).rendered().unwrap().cells(),
            t.row(1).rendered().unwrap().cells()
        ));
        t.insert(vec![Value::text("D"), Value::Float(1.0)]).unwrap();
        assert!(t.row(0).rendered().is_none());
        assert_eq!(t.rendered_bytes(), 0);
        assert!(clone.row(0).rendered().is_some(), "the clone keeps its own");
    }

    #[test]
    fn non_text_keys_resolve_without_allocation_path_breaking() {
        let mut t = Table::new(Schema::new(
            "events",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("label", ColumnType::Text),
            ],
            0,
        ));
        t.insert(vec![Value::Int(41), Value::text("a")]).unwrap();
        t.insert(vec![Value::Int(-7), Value::text("b")]).unwrap();
        assert_eq!(t.row_of_key(&Value::Int(41)), Some(0));
        assert_eq!(t.row_of_key(&Value::Int(-7)), Some(1));
        assert_eq!(t.row_of_key(&Value::Int(99)), None);
        assert_eq!(t.row_of_key_str("41"), Some(0));
        // Float keys render through Display ("{:.2}") both at insert
        // and at lookup, so they agree.
        let mut ft = Table::new(Schema::new(
            "f",
            vec![Column::new("k", ColumnType::Float)],
            0,
        ));
        ft.insert(vec![Value::Float(2.5)]).unwrap();
        assert_eq!(ft.row_of_key(&Value::Float(2.5)), Some(0));
    }
}
