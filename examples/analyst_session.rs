//! Analyst session walk-through: the §5.4 interactive model with a total
//! budget over the concurrent engine, derived aggregations (AVG — §7) as
//! query plans, private MIN/MAX (extension), and persisting a provider's
//! store between sessions. The exact answers printed next to the private
//! ones come from `Federation::exact`, the experiment oracle — an analyst
//! never sees them.
//!
//! ```sh
//! cargo run --release --example analyst_session
//! ```

use fedaqp::core::{
    private_extreme, ConcurrentSession, DerivedStatistic, Extreme, Federation, FederationConfig,
    QueryPlan, SessionPlan,
};
use fedaqp::data::{partition_rows, AmazonConfig, AmazonSynth, PartitionMode};
use fedaqp::model::{Aggregate, QueryBuilder, RangeQuery};
use fedaqp::storage::{decode_store, encode_store};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = AmazonSynth::generate(AmazonConfig {
        n_rows: 400_000,
        seed: 3,
    })?;
    let mut rng = StdRng::seed_from_u64(8);
    let partitions = partition_rows(&mut rng, dataset.cells, 4, &PartitionMode::Equal)?;
    let config = FederationConfig::paper_default(500);
    let mut federation = Federation::build(config, dataset.schema.clone(), partitions)?;

    // --- Extension queries run directly on the federation ---
    let max_votes = private_extreme(&mut federation, 2, Extreme::Max, 1.0)?;
    println!(
        "private MAX(helpful_votes) : {} (exact {:?}, ε = {})",
        max_votes.value, max_votes.exact, max_votes.epsilon
    );

    // --- Persist one provider's clustered table (offline artifact) ---
    let blob = encode_store(federation.providers()[0].store());
    let restored = decode_store(&blob)?;
    println!(
        "provider 0 store persisted : {} bytes for {} cells in {} clusters (round-trip ok: {})",
        blob.len(),
        restored.total_rows(),
        restored.n_clusters(),
        restored.total_measure() == federation.providers()[0].store().total_measure(),
    );

    // --- An interactive session: ξ = 6 at ε = 1 per query ---
    let five_star = QueryBuilder::new(federation.schema(), Aggregate::Sum)
        .range("rating", 5, 5)?
        .build()?;
    let recent = QueryBuilder::new(federation.schema(), Aggregate::Count)
        .range("week", 150, 199)?
        .build()?;
    let recent_sum = RangeQuery::new(Aggregate::Sum, recent.ranges().to_vec())?;
    let exact_five_star = federation.exact(&five_star) as f64;
    let exact_avg =
        federation.exact(&recent_sum) as f64 / (federation.exact(&recent) as f64).max(1.0);

    federation.with_engine(|engine| -> Result<(), Box<dyn std::error::Error>> {
        let session = ConcurrentSession::open(engine.clone(), 6.0, 1e-2, SessionPlan::PayAsYouGo)?;
        let per_query = session.per_query_cost();
        println!(
            "\nsession opened: per-query ε = {}, budget ξ = {}",
            per_query.eps,
            session.remaining().eps
        );

        let ans = session.query(&five_star, 0.1)?;
        println!(
            "5★ review volume           : {:.0} (exact {}, err {:.2}%) — ξ left {:.1}",
            ans.value,
            exact_five_star,
            100.0 * (ans.value - exact_five_star).abs() / exact_five_star.max(1.0),
            session.remaining().eps
        );

        // A derived statistic is a plan: its declared (ε, δ) covers the
        // COUNT and SUM sub-queries and is charged whole, up front.
        let avg = session.run_plan(&QueryPlan::Derived {
            query: recent.clone(),
            statistic: DerivedStatistic::Average,
            sampling_rate: 0.1,
            epsilon: 2.0 * per_query.eps,
            delta: 2.0 * per_query.delta,
        })?;
        println!(
            "AVG reviews per cell (recent weeks): {:.2} (exact {:.2}) — charged 2ε, ξ left {:.1}",
            avg.value().unwrap_or(f64::NAN),
            exact_avg,
            session.remaining().eps
        );

        while session.can_query() {
            session.query(&five_star, 0.1)?;
            println!(
                "extra query answered        — ξ left {:.1}",
                session.remaining().eps
            );
        }
        match session.query(&five_star, 0.1) {
            Err(e) => println!("next query rejected         : {e}"),
            Ok(_) => unreachable!("budget must be exhausted"),
        }
        let spent = session.spent();
        println!(
            "session spent (ε = {}, δ = {:.0e}) over {} charges",
            spent.eps,
            spent.delta,
            session.queries_answered()
        );
        Ok(())
    })
}
