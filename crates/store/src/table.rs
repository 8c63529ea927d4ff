//! A single table: schema + rows + its [`IndexSet`](crate::index).

use std::sync::Arc;

use crate::error::StoreError;
use crate::index::IndexSet;
use crate::schema::TableSchema;
use crate::value::{DataType, Value};
use crate::Result;

/// An in-memory table.
///
/// Rows are stored in insertion order. The primary key (when declared) is
/// indexed with a hash map for O(1) FK validation, and any number of
/// secondary equality indexes (foreign-key columns by default, more via
/// [`crate::Database::create_index`]) map values to sorted posting lists
/// of row positions. Full-column scans — RETRO's bulk access pattern —
/// are served by [`Table::column_values`] / [`Table::rows`].
///
/// Rows and indexes are copy-on-write: each sits behind an `Arc`, so
/// cloning a table (and therefore a [`crate::Database`]) bumps two
/// reference counts instead of copying data. Every mutating method goes
/// through `Arc::make_mut`, so the first write to a table whose storage
/// is shared with a clone copies that table's rows (or indexes) once;
/// later writes land in place until the next clone.
#[derive(Clone, Debug)]
pub struct Table {
    schema: TableSchema,
    rows: Arc<Vec<Vec<Value>>>,
    indexes: Arc<IndexSet>,
}

impl Table {
    /// Create an empty table for `schema`.
    pub fn new(schema: TableSchema) -> Self {
        let indexes = Arc::new(IndexSet::new(schema.primary_key));
        Self { schema, rows: Arc::default(), indexes }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// One row by position.
    pub fn row(&self, idx: usize) -> Option<&[Value]> {
        self.rows.get(idx).map(Vec::as_slice)
    }

    /// Find a row by primary-key value.
    pub fn row_by_pk(&self, key: i64) -> Option<&[Value]> {
        self.indexes.pk_lookup(key).map(|i| self.rows[i].as_slice())
    }

    /// Find a row's *position* by primary-key value — for callers that
    /// cache per-position data alongside the table (extraction builds
    /// row-parallel value-id caches this way).
    pub fn row_position_by_pk(&self, key: i64) -> Option<usize> {
        self.indexes.pk_lookup(key)
    }

    /// True when a row with this primary key exists.
    pub fn contains_pk(&self, key: i64) -> bool {
        self.indexes.contains_pk(key)
    }

    /// True when `col` carries a secondary equality index.
    pub fn has_secondary_index(&self, col: usize) -> bool {
        self.indexes.has_secondary(col)
    }

    /// Columns carrying a secondary index, in column order.
    pub fn secondary_index_columns(&self) -> Vec<usize> {
        self.indexes.secondary_columns().collect()
    }

    /// Row positions (sorted ascending) whose `col` equals `key`, or
    /// `None` when `col` carries no secondary index. `Some(&[])` means
    /// the index exists and proves no row matches. `NULL` keys match
    /// nothing (SQL equality semantics).
    pub fn index_probe<'a>(&'a self, col: usize, key: &Value) -> Option<&'a [u32]> {
        self.indexes.probe(col, key)
    }

    /// [`Self::index_probe`] with a raw integer key.
    pub fn index_probe_int(&self, col: usize, key: i64) -> Option<&[u32]> {
        self.indexes.probe_int(col, key)
    }

    /// [`Self::index_probe`] with a borrowed string key — the extraction
    /// hot path; no per-probe allocation.
    pub fn index_probe_text<'a>(&'a self, col: usize, key: &str) -> Option<&'a [u32]> {
        self.indexes.probe_text(col, key)
    }

    /// Exact distinct (non-NULL) value count of an indexed column, or
    /// `None` when `col` is not indexed. Planner selectivity input.
    pub fn index_distinct(&self, col: usize) -> Option<usize> {
        self.indexes.distinct(col)
    }

    /// Whether column `col` can carry an equality index, and with which
    /// key type (`true` = integer-keyed). Errors on FLOAT columns —
    /// equality on floats is a footgun and nothing in the engine needs it.
    pub(crate) fn indexable_key_type(&self, col: usize) -> Result<bool> {
        let def = &self.schema.columns[col];
        match def.ty {
            DataType::Int => Ok(true),
            DataType::Text => Ok(false),
            DataType::Float => Err(StoreError::Sql(format!(
                "cannot index FLOAT column `{}.{}`: equality indexes cover INTEGER and TEXT",
                self.schema.name, def.name
            ))),
        }
    }

    /// Create (and backfill) a secondary equality index on column `col`.
    /// Supported on `INTEGER` and `TEXT` columns; returns `false` when the
    /// column is already indexed. Exposed through
    /// [`crate::Database::create_index`], which also logs the declaration
    /// for recovery.
    pub(crate) fn create_secondary_index(&mut self, col: usize) -> Result<bool> {
        let int_keyed = self.indexable_key_type(col)?;
        // Checked before `make_mut`, so a no-op does not copy shared indexes.
        if self.indexes.has_secondary(col) {
            return Ok(false);
        }
        Ok(Arc::make_mut(&mut self.indexes).create_secondary(col, int_keyed, &self.rows))
    }

    /// Iterator over the values of one column (by index).
    pub fn column_values(&self, col: usize) -> impl Iterator<Item = &Value> {
        self.rows.iter().map(move |r| &r[col])
    }

    /// Iterator over the values of one column (by name).
    pub fn column_values_by_name<'a>(
        &'a self,
        name: &str,
    ) -> Result<impl Iterator<Item = &'a Value>> {
        let col = self.schema.column_index(name).ok_or_else(|| StoreError::UnknownColumn {
            table: self.schema.name.clone(),
            column: name.to_owned(),
        })?;
        Ok(self.column_values(col))
    }

    /// Validate a row against the schema (arity, types, PK presence and
    /// uniqueness — in that order). Does **not** check foreign keys — those
    /// need the whole database and are enforced by
    /// [`crate::Database::insert`] and [`crate::BulkLoader::stage`]. Both
    /// ingestion paths share this routine (the bulk loader appends staged
    /// rows to the live index, so "staged earlier in the batch" and
    /// "already present" are the same check), which is what makes them
    /// report identical first errors.
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.columns.len() {
            return Err(StoreError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.columns.len(),
                got: row.len(),
            });
        }
        for (val, col) in row.iter().zip(&self.schema.columns) {
            if !val.fits(col.ty) {
                return Err(StoreError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: col.name.clone(),
                    expected: col.ty.to_string(),
                    got: val.data_type().map_or_else(|| "NULL".to_owned(), |t| t.to_string()),
                });
            }
        }
        if let Some(pk) = self.schema.primary_key {
            match &row[pk] {
                Value::Int(k) => {
                    if self.indexes.contains_pk(*k) {
                        return Err(StoreError::DuplicateKey {
                            table: self.schema.name.clone(),
                            key: k.to_string(),
                        });
                    }
                }
                Value::Null => {
                    return Err(StoreError::NullKey {
                        table: self.schema.name.clone(),
                        column: self.schema.columns[pk].name.clone(),
                    })
                }
                other => {
                    return Err(StoreError::TypeMismatch {
                        table: self.schema.name.clone(),
                        column: self.schema.columns[pk].name.clone(),
                        expected: "INTEGER".to_owned(),
                        got: other.data_type().map_or_else(|| "NULL".into(), |t| t.to_string()),
                    })
                }
            }
        }
        Ok(())
    }

    /// Append a validated row. Callers must run [`Self::validate_row`] (or
    /// go through [`crate::Database::insert`]) first; this method only keeps
    /// the indexes coherent.
    pub(crate) fn push_unchecked(&mut self, row: Vec<Value>) -> usize {
        let pos = self.rows.len();
        Arc::make_mut(&mut self.indexes).note_append(&row, pos);
        Arc::make_mut(&mut self.rows).push(row);
        pos
    }

    /// Pre-size the row store and primary-key index for `additional` more
    /// rows, so a bulk load appends without reallocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        Arc::make_mut(&mut self.rows).reserve(additional);
        Arc::make_mut(&mut self.indexes).reserve_pk(additional);
    }

    /// Drop every row at position `len` and beyond, pruning the removed
    /// rows' index entries. Rollback support for atomic bulk loads
    /// ([`crate::BulkLoader`]): appends since a remembered length are
    /// undone in O(dropped), each posting-list tail pruned with one binary
    /// search.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.rows.len() {
            return;
        }
        Arc::make_mut(&mut self.indexes).note_truncate(&self.rows[len..], len);
        Arc::make_mut(&mut self.rows).truncate(len);
    }

    /// Remove the rows at the given (sorted, deduplicated) positions and
    /// rebuild the indexes (survivors renumber, so incremental repair
    /// would cost as much as rebuilding).
    pub(crate) fn remove_rows(&mut self, sorted_indices: &[usize]) {
        let mut keep = vec![true; self.rows.len()];
        for &i in sorted_indices {
            if i < keep.len() {
                keep[i] = false;
            }
        }
        let mut iter = keep.iter();
        Arc::make_mut(&mut self.rows).retain(|_| *iter.next().expect("keep mask aligned"));
        Arc::make_mut(&mut self.indexes).rebuild(&self.rows);
    }

    /// Replace the table's entire row set and rebuild the indexes. WAL
    /// replay support for [`crate::TableChange::Unknown`] edits: the log
    /// records the post-edit state wholesale, so recovery installs it
    /// wholesale.
    pub(crate) fn set_rows(&mut self, rows: Vec<Vec<Value>>) {
        self.rows = Arc::new(rows);
        Arc::make_mut(&mut self.indexes).rebuild(&self.rows);
    }

    /// Update one cell in place (used by imputation examples to write
    /// predicted values back). The primary key column cannot be updated.
    pub fn update_cell(&mut self, row: usize, col: usize, value: Value) -> Result<()> {
        if row >= self.rows.len() || col >= self.schema.columns.len() {
            return Err(StoreError::UnknownColumn {
                table: self.schema.name.clone(),
                column: format!("index {col}"),
            });
        }
        if Some(col) == self.schema.primary_key {
            return Err(StoreError::Sql("cannot update a primary key column".into()));
        }
        let def = &self.schema.columns[col];
        if !value.fits(def.ty) {
            return Err(StoreError::TypeMismatch {
                table: self.schema.name.clone(),
                column: def.name.clone(),
                expected: def.ty.to_string(),
                got: value.data_type().map_or_else(|| "NULL".into(), |t| t.to_string()),
            });
        }
        let old = std::mem::replace(&mut Arc::make_mut(&mut self.rows)[row][col], value);
        Arc::make_mut(&mut self.indexes).note_cell_update(col, &old, &self.rows[row][col], row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = TableSchema::builder("t")
            .pk("id")
            .column("name", DataType::Text)
            .column("score", DataType::Float)
            .build();
        Table::new(schema)
    }

    /// `table()` with a secondary index on the `name` column.
    fn indexed_table() -> Table {
        let mut t = table();
        t.create_secondary_index(1).unwrap();
        t
    }

    #[test]
    fn insert_and_lookup_by_pk() {
        let mut t = table();
        let row = vec![Value::Int(7), Value::from("abc"), Value::Float(1.5)];
        t.validate_row(&row).unwrap();
        t.push_unchecked(row);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row_by_pk(7).unwrap()[1], Value::from("abc"));
        assert_eq!(t.row_position_by_pk(7), Some(0));
        assert!(t.contains_pk(7));
        assert!(!t.contains_pk(8));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let t = table();
        let err = t.validate_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { expected: 3, got: 1, .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let t = table();
        let err = t.validate_row(&[Value::Int(1), Value::Int(2), Value::Float(0.0)]).unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
    }

    #[test]
    fn int_widens_to_float_column() {
        let t = table();
        t.validate_row(&[Value::Int(1), Value::from("x"), Value::Int(3)]).unwrap();
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        let err = t.validate_row(&[Value::Int(1), Value::from("b"), Value::Null]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }));
    }

    #[test]
    fn null_pk_rejected() {
        let t = table();
        let err = t.validate_row(&[Value::Null, Value::from("a"), Value::Null]).unwrap_err();
        assert!(matches!(err, StoreError::NullKey { .. }));
    }

    #[test]
    fn column_values_by_name_scans() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        t.push_unchecked(vec![Value::Int(2), Value::from("b"), Value::Null]);
        let names: Vec<_> =
            t.column_values_by_name("name").unwrap().filter_map(Value::as_text).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(t.column_values_by_name("bogus").is_err());
    }

    #[test]
    fn truncate_drops_rows_and_prunes_pk_index() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        t.push_unchecked(vec![Value::Int(2), Value::from("b"), Value::Null]);
        t.truncate(1);
        assert_eq!(t.len(), 1);
        assert!(t.contains_pk(1));
        assert!(!t.contains_pk(2));
        // The truncated key must be free for reuse again.
        t.validate_row(&[Value::Int(2), Value::from("c"), Value::Null]).unwrap();
        t.truncate(5); // beyond len: no-op
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_cell_rules() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        t.update_cell(0, 1, Value::from("z")).unwrap();
        assert_eq!(t.row(0).unwrap()[1], Value::from("z"));
        assert!(t.update_cell(0, 0, Value::Int(9)).is_err()); // PK frozen
        assert!(t.update_cell(0, 1, Value::Int(9)).is_err()); // wrong type
        assert!(t.update_cell(5, 1, Value::Null).is_err()); // out of range
    }

    #[test]
    fn secondary_index_tracks_all_mutations() {
        let mut t = indexed_table();
        assert!(t.has_secondary_index(1));
        assert!(!t.has_secondary_index(2));
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        t.push_unchecked(vec![Value::Int(2), Value::from("b"), Value::Null]);
        t.push_unchecked(vec![Value::Int(3), Value::from("a"), Value::Null]);
        assert_eq!(t.index_probe_text(1, "a"), Some(&[0u32, 2][..]));

        t.update_cell(1, 1, Value::from("a")).unwrap();
        assert_eq!(t.index_probe_text(1, "a"), Some(&[0u32, 1, 2][..]));
        assert_eq!(t.index_probe_text(1, "b"), Some(&[][..]));
        assert_eq!(t.index_distinct(1), Some(1));

        t.remove_rows(&[0]);
        assert_eq!(t.index_probe_text(1, "a"), Some(&[0u32, 1][..]));

        t.truncate(1);
        assert_eq!(t.index_probe_text(1, "a"), Some(&[0u32][..]));

        t.set_rows(vec![vec![Value::Int(9), Value::from("z"), Value::Null]]);
        assert_eq!(t.index_probe_text(1, "z"), Some(&[0u32][..]));
        assert_eq!(t.index_probe_text(1, "a"), Some(&[][..]));
    }

    #[test]
    fn float_columns_cannot_be_indexed() {
        let mut t = table();
        assert!(t.create_secondary_index(2).is_err());
        assert!(t.create_secondary_index(1).unwrap());
        assert!(!t.create_secondary_index(1).unwrap()); // idempotent
        assert_eq!(t.secondary_index_columns(), vec![1]);
    }

    #[test]
    fn unindexed_probe_returns_none() {
        let mut t = table();
        t.push_unchecked(vec![Value::Int(1), Value::from("a"), Value::Null]);
        assert_eq!(t.index_probe(1, &Value::from("a")), None);
        assert_eq!(t.index_probe_int(0, 1), None); // pk has no secondary index
        assert_eq!(t.index_distinct(1), None);
    }
}
