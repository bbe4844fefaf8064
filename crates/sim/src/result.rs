//! The unified result table every deck run produces.

use std::fmt::Write as _;

/// Aggregated linear-solver effort of one executed analysis: which
/// stationary solver ran the master-equation solves, how many solves this
/// process actually computed, and how hard they were.
///
/// This describes the *work performed by this run*, not the result values:
/// a checkpoint-resumed execution restores finished rows without re-solving
/// them, so its effort legitimately differs from the uninterrupted run's
/// while the tables stay bit-identical. That is why [`SimulationResult`]'s
/// `PartialEq` deliberately ignores this field.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverEffort {
    /// The solver that produced the computed solves (`"bicgstab-jacobi"`,
    /// `"gauss-seidel"`, … or `"mixed"` if a fallback split the run).
    pub solver: String,
    /// Stationary solves computed by this process (restored checkpoint
    /// chunks are not re-solved and do not count).
    pub solves: usize,
    /// Total solver iterations across the computed solves.
    pub iterations: usize,
    /// The largest converged residual (or final Gauss–Seidel delta) any
    /// computed solve reported.
    pub residual_max: f64,
    /// The largest stationary probability any computed solve left on the
    /// edge of its final charge box (see `MasterSolveStats::boundary_mass`):
    /// a value that is not small says the window ceiling is too narrow for
    /// the temperature and bias.
    pub boundary_mass_max: f64,
    /// The most states any computed solve's final box held.
    pub box_states_max: usize,
    /// Box solves across the computed solves: each solve grows its box in
    /// one or more rounds.
    pub rounds: usize,
}

/// A column-named table of simulation output with engine provenance — the
/// one shape every backend's results come back in, whatever the analysis.
///
/// Rows are data points (bias points, grid points or sample times); columns
/// are named series (`VG`, `I(J1)`, `t`, …). Metadata records provenance:
/// which engine ran, with which seed, at which temperature.
///
/// Equality compares the result identity — label, engine, columns, rows
/// and metadata — and deliberately ignores [`SimulationResult::solver_effort`],
/// which reports per-process work (see [`SolverEffort`]).
#[derive(Debug, Clone)]
pub struct SimulationResult {
    label: String,
    engine: String,
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
    metadata: Vec<(String, String)>,
    solver_effort: Option<SolverEffort>,
}

impl PartialEq for SimulationResult {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.engine == other.engine
            && self.columns == other.columns
            && self.rows == other.rows
            && self.metadata == other.metadata
    }
}

impl SimulationResult {
    /// Assembles a result table.
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from the column count (an executor
    /// bug, not a user input error).
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        engine: impl Into<String>,
        columns: Vec<String>,
        rows: Vec<Vec<f64>>,
        metadata: Vec<(String, String)>,
    ) -> Self {
        let columns_len = columns.len();
        assert!(
            rows.iter().all(|row| row.len() == columns_len),
            "every row must have one value per column"
        );
        SimulationResult {
            label: label.into(),
            engine: engine.into(),
            columns,
            rows,
            metadata,
            solver_effort: None,
        }
    }

    /// Attaches the aggregated solver effort of the run that produced this
    /// table (ignored by equality — see [`SolverEffort`]).
    #[must_use]
    pub fn with_solver_effort(mut self, effort: SolverEffort) -> Self {
        self.solver_effort = Some(effort);
        self
    }

    /// The aggregated solver effort of the producing run, when the
    /// backend reported it (master-equation sweeps and maps).
    #[must_use]
    pub fn solver_effort(&self) -> Option<&SolverEffort> {
        self.solver_effort.as_ref()
    }

    /// The analysis label (e.g. `dc VG 0.0..0.16 (41 points)`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The engine that produced the data (e.g. `master-equation`).
    #[must_use]
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// The column names, in row order.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Provenance metadata as `(key, value)` pairs.
    #[must_use]
    pub fn metadata(&self) -> &[(String, String)] {
        &self.metadata
    }

    /// The values of one named column (case-insensitive).
    #[must_use]
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let index = self
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))?;
        Some(self.rows.iter().map(|row| row[index]).collect())
    }

    /// Renders the table as CSV: a header row of column names followed by
    /// one line per data row.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a self-describing JSON object with `label`,
    /// `engine`, `metadata`, `columns` and `rows` keys.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"label\": {},", json_string(&self.label));
        let _ = writeln!(out, "  \"engine\": {},", json_string(&self.engine));
        out.push_str("  \"metadata\": {");
        for (index, (key, value)) in self.metadata.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_string(key), json_string(value));
        }
        out.push_str("},\n");
        out.push_str("  \"columns\": [");
        for (index, column) in self.columns.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(column));
        }
        out.push_str("],\n");
        out.push_str("  \"rows\": [\n");
        for (index, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|v| json_number(*v)).collect();
            let _ = write!(out, "    [{}]", cells.join(", "));
            out.push_str(if index + 1 < self.rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (JSON has no NaN/Infinity — those
/// become `null`).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SimulationResult {
        SimulationResult::new(
            "dc VG 0..0.1 (2 points)",
            "master-equation",
            vec!["VG".into(), "I(J1)".into()],
            vec![vec![0.0, 1e-12], vec![0.1, 2.5e-9]],
            vec![("seed".into(), "7".into())],
        )
    }

    #[test]
    fn accessors_are_consistent() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.columns().len(), 2);
        assert_eq!(t.column("i(j1)").unwrap(), vec![1e-12, 2.5e-9]);
        assert!(t.column("nope").is_none());
        assert_eq!(t.engine(), "master-equation");
        assert_eq!(t.metadata()[0].0, "seed");
    }

    #[test]
    #[should_panic(expected = "one value per column")]
    fn mismatched_rows_panic() {
        let _ = SimulationResult::new(
            "x",
            "y",
            vec!["a".into(), "b".into()],
            vec![vec![1.0]],
            Vec::new(),
        );
    }

    #[test]
    fn csv_round_trips_values_exactly() {
        let csv = table().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("VG,I(J1)"));
        let row: Vec<f64> = lines
            .next()
            .unwrap()
            .split(',')
            .map(|cell| cell.parse().unwrap())
            .collect();
        assert_eq!(row, vec![0.0, 1e-12]);
    }

    #[test]
    fn json_is_well_formed_enough_to_eyeball() {
        let json = table().to_json();
        assert!(json.contains("\"engine\": \"master-equation\""));
        assert!(json.contains("\"columns\": [\"VG\", \"I(J1)\"]"));
        assert!(json.contains("\"seed\": \"7\""));
        assert!(json.trim_end().ends_with('}'));
        // Balanced braces and brackets (cheap structural sanity check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1.5e-9), "1.5e-9");
    }

    #[test]
    fn solver_effort_is_carried_but_ignored_by_equality() {
        let plain = table();
        let effortful = table().with_solver_effort(SolverEffort {
            solver: "bicgstab-jacobi".into(),
            solves: 12,
            iterations: 84,
            residual_max: 3e-14,
            boundary_mass_max: 2e-9,
            box_states_max: 625,
            rounds: 30,
        });
        assert_eq!(effortful.solver_effort().unwrap().solves, 12);
        assert!(plain.solver_effort().is_none());
        // A resumed run restores rows without re-solving: effort differs,
        // the result identity must not.
        assert_eq!(plain, effortful);
        let wider = table().with_solver_effort(SolverEffort {
            boundary_mass_max: 0.25,
            ..effortful.solver_effort().unwrap().clone()
        });
        assert_eq!(effortful, wider);
    }
}
