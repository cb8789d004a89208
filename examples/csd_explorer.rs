//! CSD explorer: inspect the City Semantic Diagram itself (the textual
//! counterpart of the paper's Fig. 6 map of Shanghai).
//!
//! Builds the diagram, prints construction statistics, the largest units,
//! and a worked semantic-recognition vote for one stay point (the paper's
//! Fig. 7 walkthrough).
//!
//! Run with: `cargo run --release --example csd_explorer`

use pervasive_miner::prelude::*;
use pm_cluster::GaussianKernel;
use pm_core::recognize::{recognize_stay_point_unit, stay_points_of};

fn main() {
    let dataset = Dataset::generate(&CityConfig::small(11));
    let params = MinerParams::default();

    let stays = stay_points_of(&dataset.trajectories);
    let csd = CitySemanticDiagram::build(&dataset.pois, &stays, &params).expect("build");
    let stats = csd.stats();

    println!("City Semantic Diagram construction (Fig. 6 equivalent)");
    println!("  POIs                      {}", stats.n_pois);
    println!("  coarse clusters (Alg. 1)  {}", stats.n_coarse);
    println!("  leftover POIs             {}", stats.n_leftover);
    println!("  units after purification  {}", stats.n_purified);
    println!("  final units after merge   {}", stats.n_units);
    println!("  POIs covered by units     {}", stats.n_covered);
    println!("  single-category units     {:.1}%", stats.purity * 100.0);

    // The largest units and what they are.
    let mut units: Vec<(usize, &pm_core::construct::SemanticUnit)> =
        csd.units().iter().enumerate().collect();
    units.sort_by_key(|(_, u)| std::cmp::Reverse(u.members.len()));
    println!("\nlargest fine-grained semantic units:");
    for (uid, unit) in units.iter().take(8) {
        println!(
            "  unit {:>3}: {:>4} POIs at ({:>8.0}, {:>8.0})  tags {}",
            uid,
            unit.members.len(),
            unit.center.x,
            unit.center.y,
            unit.tags
        );
    }

    // A worked recognition vote (Fig. 7): take a real stay point and show
    // which unit wins.
    let sp = dataset.trajectories[0].stays[0];
    let kernel = GaussianKernel::new(params.r3sigma);
    println!(
        "\nsemantic recognition walkthrough (Fig. 7) for stay point at ({:.0}, {:.0}):",
        sp.pos.x, sp.pos.y
    );
    let mut ballots = 0;
    let mut votes: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    csd.for_each_owned_in_range(sp.pos, params.r3sigma, |i, d_sq| {
        ballots += 1;
        if let Some(uid) = csd.unit_of(i) {
            *votes.entry(uid).or_default() += csd.popularity(i) * kernel.coeff_at(d_sq.sqrt());
        }
    });
    println!(
        "  {} unit-owned POIs within R_3sigma = {} m",
        ballots, params.r3sigma
    );
    let mut rows: Vec<(usize, f64)> = votes.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (uid, vote) in rows.iter().take(5) {
        println!(
            "  unit {:>3} vote {:>10.4}  tags {}",
            uid,
            vote,
            csd.units()[*uid].tags
        );
    }
    let (_, tags, _) = recognize_stay_point_unit(&csd, &kernel, sp.pos);
    println!("  => recognized semantic property: {tags}");
}
