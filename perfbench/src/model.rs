//! The benchmark's own model of the data: a seeded RNG, the synthetic
//! dataset of §5, and the facts the generators and checks need, read from
//! the base relations directly rather than from the program's view.

use rxview_core::XmlViewSystem;
use rxview_relstore::{Database, Tuple, Value};
use rxview_workload::{synthetic_database, SyntheticConfig};
use rxview_xmlkit::{parse_xpath, XPath};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Seed of the base data. The data is the same on every run; `--seed`
/// draws the traffic (which heads and paths are written and read, in
/// which order, with which payloads), so that runs with different seeds
/// measure the same view and differ only in what the generators send.
pub const DATA_SEED: u64 = 42;

/// The synthetic base database for `groups` top-level groups of
/// `group_size` rows each, drawn from [`DATA_SEED`].
pub fn base_database(groups: usize, group_size: usize) -> Database {
    synthetic_database(&SyntheticConfig {
        seed: DATA_SEED,
        group_size,
        ..SyntheticConfig::with_size(groups * group_size)
    })
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("synthetic relations hold integers")
}

/// What the base relations say about the published view.
#[derive(Debug, Clone)]
pub struct BaseModel {
    /// Top-level (`c6 = 1`) ids whose `C` and `F` rows join on `c2..c4`:
    /// the only heads an insertion can give a child.
    pub joinable_heads: Vec<i64>,
    /// Ids whose `C` and `F` rows join (nodes that can have children).
    pub joinable: BTreeSet<i64>,
    /// `H` adjacency: `h1 -> [h2]`, sorted.
    pub h_children: BTreeMap<i64, Vec<i64>>,
    /// `CU` payload (`c5`) per id.
    pub payload: HashMap<i64, i64>,
    /// Row counts of the four relations before any update.
    pub rows: BTreeMap<String, usize>,
}

impl BaseModel {
    pub fn read(db: &Database) -> Self {
        let table = |t: &str| db.table(t).expect("synthetic schema");
        let f_rows: HashMap<i64, &Tuple> = table("F").iter().map(|r| (int(&r[0]), r)).collect();
        let mut joinable = BTreeSet::new();
        let mut joinable_heads = Vec::new();
        for c in table("C").iter() {
            let id = int(&c[0]);
            let joins = f_rows
                .get(&id)
                .is_some_and(|f| (1..4).all(|k| f[k] == c[k]));
            if joins {
                joinable.insert(id);
                if int(&c[5]) == 1 {
                    joinable_heads.push(id);
                }
            }
        }
        joinable_heads.sort_unstable();
        let mut h_children: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for h in table("H").iter() {
            h_children.entry(int(&h[0])).or_default().push(int(&h[1]));
        }
        for kids in h_children.values_mut() {
            kids.sort_unstable();
        }
        let payload = table("CU")
            .iter()
            .map(|r| (int(&r[0]), int(&r[4])))
            .collect();
        let rows = ["C", "CU", "F", "H"]
            .iter()
            .map(|t| (t.to_string(), table(t).len()))
            .collect();
        BaseModel {
            joinable_heads,
            joinable,
            h_children,
            payload,
            rows,
        }
    }

    /// The `(id, payload)` pairs `node[id=head]/sub/node` must select, from
    /// the view definition: `H` children of a head whose `C`/`F` rows join,
    /// each present in `CU`.
    pub fn expected_children(&self, head: i64) -> Vec<(i64, i64)> {
        if !self.joinable.contains(&head) {
            return Vec::new();
        }
        self.h_children
            .get(&head)
            .map(|kids| {
                kids.iter()
                    .filter_map(|k| self.payload.get(k).map(|p| (*k, *p)))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// An anchored point read and the answer the base relations give for it.
#[derive(Debug, Clone)]
pub struct ReadTarget {
    pub head: i64,
    pub path: XPath,
    pub expected: Vec<(i64, i64)>,
}

impl ReadTarget {
    /// `node[id=head]/sub/node`.
    pub fn children_of(model: &BaseModel, head: i64) -> Self {
        ReadTarget {
            head,
            path: parse_xpath(&format!("node[id={head}]/sub/node")).expect("read path parses"),
            expected: model.expected_children(head),
        }
    }

    /// Describes a wrong answer.
    pub fn mismatch(&self, got: &[(i64, i64)]) -> Option<String> {
        (got != self.expected.as_slice()).then(|| {
            format!(
                "node[id={}]/sub/node gave {got:?}, expected {:?}",
                self.head, self.expected
            )
        })
    }
}

/// One node a generator inserted: where, with which payload, and whether
/// the generator has deleted it since.
#[derive(Debug, Clone)]
pub struct FreshNode {
    pub parent: i64,
    pub payload: i64,
    pub live: bool,
}

/// Checks the final base relations against the generator's model: the
/// insertion translation adds `H(parent, fresh)` and `CU(fresh, …)`, the
/// edge deletion removes `H(parent, fresh)` only (`CU` is the universe of
/// `C` tuples and keeps the row), and nothing else changes.
pub fn check_base(
    sys: &XmlViewSystem,
    before: &BaseModel,
    fresh: &BTreeMap<i64, FreshNode>,
) -> Result<(), String> {
    let db = sys.base();
    let table = |t: &str| db.table(t).expect("synthetic schema");
    let (h, c, cu) = (table("H"), table("C"), table("CU"));
    let live = fresh.values().filter(|n| n.live).count();
    let expect = |t: &str, extra: usize| before.rows[t] + extra;
    for (t, want) in [
        ("C", expect("C", 0)),
        ("F", expect("F", 0)),
        ("H", expect("H", live)),
        ("CU", expect("CU", fresh.len())),
    ] {
        if table(t).len() != want {
            return Err(format!(
                "{t} has {} rows, model says {want}",
                table(t).len()
            ));
        }
    }
    for (&id, node) in fresh {
        let edge = Tuple::from_values([Value::Int(node.parent), Value::Int(id)]);
        if h.contains_key(&edge) != node.live {
            return Err(format!(
                "H({}, {id}) present={} but the model says live={}",
                node.parent,
                h.contains_key(&edge),
                node.live
            ));
        }
        let key = Tuple::from_values([Value::Int(id)]);
        match cu.get(&key) {
            Some(row) if int(&row[4]) == node.payload => {}
            Some(row) => {
                return Err(format!(
                    "CU({id}) payload {} != model {}",
                    int(&row[4]),
                    node.payload
                ))
            }
            None => return Err(format!("CU({id}) missing")),
        }
        if c.contains_key(&key) {
            return Err(format!("C({id}) appeared; insertions must not touch C"));
        }
    }
    Ok(())
}

/// The `(id, payload)` pairs of a `select` answer, sorted.
pub fn answer_pairs(answer: &[(String, Tuple)]) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = answer
        .iter()
        .map(|(_, t)| (int(&t[0]), int(&t[1])))
        .collect();
    out.sort_unstable();
    out
}
