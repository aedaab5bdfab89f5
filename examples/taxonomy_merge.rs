//! Merging class taxonomies in the target-driven (preferred-hierarchy)
//! reporting mode.
//!
//! Run with `cargo run --example taxonomy_merge`.

use schema_merge_core::{Merger, WeakSchema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Target-driven merging: prefer one hierarchy ─────────────────
    // ATOM-style taxonomy merging treats one input as the *target*
    // whose shape should survive. Preference can never change the LUB
    // (that associativity is the paper's point) — instead the report
    // itemizes everything the other inputs forced onto the target.
    let curated = WeakSchema::builder()
        .specialize("Sighthound", "Dog")
        .specialize("Whippet", "Sighthound")
        .arrow("Dog", "registry", "string")
        .build()?;
    let field_observations = WeakSchema::builder()
        .specialize("Whippet", "Racer")
        .specialize("Racer", "Dog")
        .arrow("Sighthound", "gait", "string")
        .build()?;

    let report = Merger::new()
        .schema_named("curated", &curated)
        .schema_named("field", &field_observations)
        .prefer_hierarchy("curated")
        .execute()?;
    println!("target-driven report for `curated`:");
    for diagnostic in &report.diagnostics {
        if diagnostic.code().starts_with("I-TARGET") {
            println!("  [{}] {}", diagnostic.code(), diagnostic.message);
        }
    }
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code() == "I-TARGET-ARROW"));

    Ok(())
}
