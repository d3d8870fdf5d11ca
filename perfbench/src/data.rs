//! The workloads' inputs: dataset, engine-phase query suite and served
//! templates, all made from the seed.
//!
//! Each workload is one fixed dataset, as JOB and LSQB each run over one
//! dataset: the generators' own data seed stays at its default. `--seed`
//! shuffles the row order of every relation and draws the served traffic
//! (windows, hot set, arrival times). Varying the generator's data seed
//! instead changes per-query cost by up to 3× (a few heavy-tailed "popular"
//! movies decide whether a filter keeps most of the output), so run-to-run
//! spread would measure the dataset draw rather than the system.

use fj_query::ConjunctiveQuery;
use fj_storage::Catalog;
use fj_workloads::{job, lsqb, NamedQuery};

/// The JOB-like dataset is `JobConfig::benchmark()` with movies and people
/// multiplied by this factor: the shortest of the 24 queries then takes a
/// few milliseconds at one thread.
pub const JOB_SCALE: f64 = 2.0;
/// The LSQB-like scale factor (3 000 persons per unit).
pub const LSQB_SF: f64 = 1.0;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// JOB-like: 24 acyclic queries with selections (paper Fig 14).
    Job,
    /// LSQB-like: q1–q5, three cyclic, no selections (paper Fig 16).
    Lsqb,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "job" => Some(Kind::Job),
            "lsqb" => Some(Kind::Lsqb),
            _ => None,
        }
    }
}

/// One served query template: a prepared query whose `alias` atom gets a
/// per-request filter override `base and column >= lo and column < lo + width`.
#[derive(Debug, Clone)]
pub struct Template {
    /// Suite name of the query the template is made from.
    pub name: String,
    /// The query as prepared in process.
    pub query: ConjunctiveQuery,
    /// The query as prepared over the wire (datalog text).
    pub text: String,
    /// The atom whose filter each request overrides.
    pub alias: &'static str,
    /// The template's own filter on that atom, kept in every override.
    pub base: &'static str,
    /// The windowed column.
    pub column: &'static str,
    /// Window start values are drawn from `0..domain - width`.
    pub domain: i64,
    /// Window width.
    pub width: i64,
}

impl Template {
    /// The override filter text for the window starting at `lo`.
    pub fn filter(&self, lo: i64) -> String {
        let window = format!("{c} >= {lo} and {c} < {hi}", c = self.column, hi = lo + self.width);
        if self.base.is_empty() {
            window
        } else {
            format!("{} and {window}", self.base)
        }
    }
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Dataset {
    /// The relations, rows shuffled by the seed.
    pub catalog: Catalog,
    /// The engine-phase query suite.
    pub suite: Vec<NamedQuery>,
    /// The served templates.
    pub templates: Vec<Template>,
}

/// The JOB-like generator configuration used by the `job` workload.
fn job_config() -> job::JobConfig {
    let mut config = job::JobConfig::benchmark();
    config.movies = (config.movies as f64 * JOB_SCALE) as usize;
    config.people = (config.people as f64 * JOB_SCALE) as usize;
    config
}

/// Generate a workload's inputs from `seed`.
pub fn generate(kind: Kind, seed: u64) -> Dataset {
    match kind {
        Kind::Job => {
            let config = job_config();
            let base = job::generate_catalog(&config);
            let suite = job::queries();
            let movies = config.movies as i64;
            let people = config.people as i64;
            // (suite query, alias, its filter, windowed column, domain, width)
            let specs = [
                ("q1a_like", "title", "production_year > 2000", "id", movies, 400),
                ("q3a_like", "title", "production_year > 1995", "id", movies, 400),
                ("q4a_like", "movie_info_idx", "info_type_id = 2", "movie_id", movies, 400),
                ("q8a_like", "cast_info", "role_id = 1", "movie_id", movies, 200),
                ("q17a_like", "name", "gender = 0", "id", people, 400),
            ];
            let templates = specs
                .iter()
                .map(|&(name, alias, base, column, domain, width)| {
                    template(&suite, name, alias, base, column, domain, width)
                })
                .collect();
            Dataset { catalog: shuffle_rows(&base, seed), suite, templates }
        }
        Kind::Lsqb => {
            let config = lsqb::LsqbConfig::at_scale(LSQB_SF);
            let base = lsqb::generate_catalog(&config);
            let suite = lsqb::queries();
            let persons = config.num_persons() as i64;
            let specs = [
                ("q1", "k1", "src", 200),
                ("q2", "k1", "src", 100),
                ("q3", "k1", "src", 25),
                ("q4", "person", "id", 100),
                ("q5", "p1", "id", 150),
            ];
            let templates = specs
                .iter()
                .map(|&(name, alias, column, width)| {
                    template(&suite, name, alias, "", column, persons, width)
                })
                .collect();
            Dataset { catalog: shuffle_rows(&base, seed), suite, templates }
        }
    }
}

fn template(
    suite: &[NamedQuery],
    name: &str,
    alias: &'static str,
    base: &'static str,
    column: &'static str,
    domain: i64,
    width: i64,
) -> Template {
    let query = suite
        .iter()
        .find(|q| q.name == name)
        .unwrap_or_else(|| panic!("suite has query {name}"))
        .query
        .clone();
    let mut t = Template {
        name: name.to_string(),
        query,
        text: String::new(),
        alias,
        base,
        column,
        domain,
        width,
    };
    // Prepare the template with a window in place, as a parameterized
    // statement is planned for its parameterized shape: the optimizer then
    // knows the windowed atom is selective.
    let window = fj_query::parse_filter(&t.filter(0)).expect("window filters parse");
    for atom in t.query.atoms.iter_mut().filter(|a| a.alias == alias) {
        atom.filter = window.clone();
    }
    t.text = t.query.to_string();
    t
}

/// A copy of `catalog` with every relation's rows in a seeded random order.
pub fn shuffle_rows(catalog: &Catalog, seed: u64) -> Catalog {
    let mut names: Vec<&str> = catalog.relation_names();
    names.sort_unstable();
    let mut out = Catalog::new();
    for name in names {
        let relation = catalog.get(name).expect("listed relations exist");
        let mut rng = Rng::new(seed ^ fnv1a(name));
        let mut order: Vec<usize> = (0..relation.num_rows()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.add(relation.gather(&order)).expect("relation names are unique");
    }
    out
}

fn fnv1a(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// SplitMix64: a small seeded generator, so the benchmark's draws do not
/// depend on any other crate's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_join::{FreeJoinEngine, FreeJoinOptions};

    fn fingerprint(catalog: &Catalog) -> Vec<(String, usize, Vec<fj_storage::Value>)> {
        let mut names = catalog.relation_names();
        names.sort_unstable();
        names
            .into_iter()
            .map(|n| {
                let r = catalog.get(n).unwrap();
                let first = if r.num_rows() > 0 { r.row(0) } else { Vec::new() };
                (n.to_string(), r.num_rows(), first)
            })
            .collect()
    }

    fn answers(catalog: &Catalog, queries: &[NamedQuery]) -> Vec<u64> {
        let engine = FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(1));
        queries
            .iter()
            .map(|q| {
                let plan = fj_plan::optimize(
                    &q.query,
                    &fj_plan::CatalogStats::collect(catalog),
                    fj_plan::OptimizerOptions::default(),
                );
                engine.execute(catalog, &q.query, &plan).unwrap().0.cardinality()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_rows_and_answers() {
        let base = lsqb::generate_catalog(&lsqb::LsqbConfig::tiny());
        let a = shuffle_rows(&base, 7);
        let b = shuffle_rows(&base, 7);
        let c = shuffle_rows(&base, 8);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // Another seed reorders rows but keeps every relation's size ...
        let sizes =
            |f: Vec<(String, usize, _)>| f.into_iter().map(|(n, r, _)| (n, r)).collect::<Vec<_>>();
        assert_eq!(sizes(fingerprint(&a)), sizes(fingerprint(&c)));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        // ... and every answer.
        let queries = lsqb::queries();
        let want = answers(&base, &queries);
        assert_eq!(answers(&a, &queries), want);
        assert_eq!(answers(&b, &queries), want);
        assert_eq!(answers(&c, &queries), want);
    }

    #[test]
    fn templates_resolve_and_windows_render() {
        for kind in [Kind::Job, Kind::Lsqb] {
            let data = generate(kind, 1);
            assert_eq!(data.templates.len(), 5);
            for t in &data.templates {
                t.query.validate(&data.catalog).unwrap();
                assert!(t.query.atoms.iter().any(|a| a.alias == t.alias), "{}", t.name);
                assert!(t.width < t.domain);
                fj_query::parse_filter(&t.filter(t.domain - t.width)).unwrap();
                assert_eq!(
                    fj_query::parse_query(&t.text).unwrap().atoms.len(),
                    t.query.atoms.len()
                );
            }
        }
        let t = Template {
            name: "q".into(),
            query: lsqb::queries()[0].query.clone(),
            text: String::new(),
            alias: "k1",
            base: "",
            column: "src",
            domain: 100,
            width: 10,
        };
        assert_eq!(t.filter(5), "src >= 5 and src < 15");
        let t = Template { base: "gender = 0", ..t };
        assert_eq!(t.filter(0), "gender = 0 and src >= 0 and src < 10");
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        for _ in 0..1000 {
            let x = a.below(17);
            assert_eq!(x, b.below(17));
            assert!(x < 17);
            let u = a.unit();
            assert_eq!(u, b.unit());
            assert!((0.0..1.0).contains(&u));
        }
        let mean = (0..20_000).map(|_| a.exp(2.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 2.0).abs() < 0.1, "{mean}");
    }
}
