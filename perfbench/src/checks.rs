//! Output checks against a reference adjacency built from the graph's
//! edge list. They run outside the timed loops.

use gsampler_algos::drivers::WalkTrace;
use gsampler_core::{Graph, GraphSample, Value};
use gsampler_matrix::NodeId;

use crate::report::Report;

/// Sorted in-neighbour lists per column (`column v` = in-edges of `v`,
/// the orientation samples use).
pub struct Adjacency {
    offsets: Vec<usize>,
    rows: Vec<NodeId>,
}

impl Adjacency {
    pub fn of(graph: &Graph) -> Adjacency {
        let n = graph.num_nodes();
        let edges = graph.matrix.global_edges();
        let mut offsets = vec![0usize; n + 1];
        for &(_, c, _) in &edges {
            offsets[c as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut rows = vec![0 as NodeId; edges.len()];
        for &(r, c, _) in &edges {
            rows[fill[c as usize]] = r;
            fill[c as usize] += 1;
        }
        for c in 0..n {
            rows[offsets[c]..offsets[c + 1]].sort_unstable();
        }
        Adjacency { offsets, rows }
    }

    fn column(&self, col: NodeId) -> &[NodeId] {
        let c = col as usize;
        if c + 1 >= self.offsets.len() {
            return &[];
        }
        &self.rows[self.offsets[c]..self.offsets[c + 1]]
    }

    pub fn has_edge(&self, row: NodeId, col: NodeId) -> bool {
        self.column(col).binary_search(&row).is_ok()
    }

    pub fn degree(&self, col: NodeId) -> usize {
        self.column(col).len()
    }
}

/// What a layer's output must satisfy.
#[derive(Clone, Copy)]
pub enum Bound {
    /// Node-wise: at most this many sampled edges per frontier column.
    PerColumn(usize),
    /// Layer-wise: at most this many distinct sampled rows per layer.
    LayerRows(usize),
}

fn layer_matrix(layer: &[Value]) -> Option<&gsampler_matrix::GraphMatrix> {
    layer.first().and_then(|v| v.as_matrix())
}

/// Check one multi-layer sample: every sampled edge exists, and each
/// layer meets its bound.
pub fn sample(report: &mut Report, adj: &Adjacency, s: &GraphSample, bounds: &[Bound]) {
    report.check("layers_present", s.layers.len() == bounds.len(), || {
        format!("{} layers, expected {}", s.layers.len(), bounds.len())
    });
    for (l, (layer, bound)) in s.layers.iter().zip(bounds).enumerate() {
        let Some(m) = layer_matrix(layer) else {
            report.check("layer_matrix", false, || {
                format!("layer {l} has no matrix output")
            });
            continue;
        };
        let edges = m.global_edges();
        let missing = edges.iter().find(|&&(r, c, _)| !adj.has_edge(r, c));
        report.check("edges_exist", missing.is_none(), || {
            format!("layer {l}: sampled edge {missing:?} is not in the graph")
        });
        match *bound {
            Bound::PerColumn(fanout) => {
                // Per stored column: a seed listed twice is two columns.
                let mut per_col = vec![0usize; m.data.ncols()];
                for (_, c, _) in m.data.iter_edges() {
                    per_col[c as usize] += 1;
                }
                let worst = per_col.into_iter().max().unwrap_or(0);
                report.check("fanout_bound", worst <= fanout, || {
                    format!("layer {l}: a column kept {worst} edges, fanout {fanout}")
                });
            }
            Bound::LayerRows(width) => {
                // `global_edges` is sorted by row first.
                let mut rows: Vec<NodeId> = edges.iter().map(|e| e.0).collect();
                rows.dedup();
                report.check("layer_rows_bound", rows.len() <= width, || {
                    format!("layer {l}: {} distinct rows, width {width}", rows.len())
                });
            }
        }
    }
}

/// Check a walk trace: each step moves along an in-edge of the current
/// node, or stays put at a node without one.
pub fn walk(report: &mut Report, adj: &Adjacency, trace: &WalkTrace, length: usize) {
    report.check("walk_length", trace.positions.len() == length, || {
        format!("{} steps, expected {length}", trace.positions.len())
    });
    let mut at: Vec<NodeId> = trace.seeds.clone();
    for (step, next) in trace.positions.iter().enumerate() {
        let bad = at.iter().zip(next).position(|(&v, &u)| {
            if adj.degree(v) == 0 {
                u != v
            } else {
                !adj.has_edge(u, v)
            }
        });
        report.check(
            "walk_follows_edges",
            next.len() == at.len() && bad.is_none(),
            || format!("step {step}: walker {bad:?} left the graph's edges"),
        );
        at.clone_from(next);
    }
}

/// Exactly-once delivery of one epoch's mini-batches.
pub struct Delivery {
    seen: Vec<bool>,
    duplicates: usize,
    out_of_range: usize,
}

impl Delivery {
    pub fn new(batches: usize) -> Delivery {
        Delivery {
            seen: vec![false; batches],
            duplicates: 0,
            out_of_range: 0,
        }
    }

    pub fn deliver(&mut self, idx: usize) {
        match self.seen.get_mut(idx) {
            Some(s) if *s => self.duplicates += 1,
            Some(s) => *s = true,
            None => self.out_of_range += 1,
        }
    }

    /// Record the check; `skipped` batches were quarantined (counted as
    /// failed, not as delivered).
    pub fn finish(self, report: &mut Report, skipped: usize) {
        let delivered = self.seen.iter().filter(|&&s| s).count();
        let ok = self.duplicates == 0
            && self.out_of_range == 0
            && delivered + skipped == self.seen.len();
        report.check("batches_exactly_once", ok, || {
            format!(
                "delivered {delivered} + skipped {skipped} of {}, {} duplicates, {} out of range",
                self.seen.len(),
                self.duplicates,
                self.out_of_range
            )
        });
    }
}

/// Output equality as the serving layer promises it: the same sampled
/// edges with bit-equal weights in every matrix, and identical node lists,
/// vectors and scalars. Storage layout is not compared: a packed reply
/// comes back row-compacted where a solo run keeps every graph row.
pub fn same_output(a: &GraphSample, b: &GraphSample) -> bool {
    a.layers.len() == b.layers.len()
        && a.layers
            .iter()
            .zip(&b.layers)
            .all(|(la, lb)| la.len() == lb.len() && la.iter().zip(lb).all(|(x, y)| value_eq(x, y)))
}

fn value_eq(a: &Value, b: &Value) -> bool {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let edges = |m: &gsampler_matrix::GraphMatrix| {
        m.global_edges()
            .into_iter()
            .map(|(r, c, w)| (r, c, w.to_bits()))
            .collect::<Vec<_>>()
    };
    match (a, b) {
        (Value::Matrix(x), Value::Matrix(y)) => edges(x) == edges(y),
        (Value::Dense(x), Value::Dense(y)) => {
            x.nrows() == y.nrows() && bits(x.as_slice()) == bits(y.as_slice())
        }
        (Value::Vector(x), Value::Vector(y)) => bits(x) == bits(y),
        (Value::Nodes(x), Value::Nodes(y)) => x == y,
        (Value::Scalar(x), Value::Scalar(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}
