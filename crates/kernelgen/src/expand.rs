//! Seeded expansion: instantiate a [`FamilySpec`] over its
//! `trips × unrolls` grid. Expansion is a pure function of the spec —
//! byte-identical at any job count, any host, any time.

use crate::emit::{self, Payload};
use crate::rng::mix;
use crate::spec::FamilySpec;

/// One instantiated grid point of a family.
#[derive(Clone)]
pub struct Variant {
    /// Variant name: `gen.<family>.t<trip>.u<unroll>`.
    pub name: String,
    /// Owning family.
    pub family: String,
    /// Trip count.
    pub trip: u32,
    /// Chain-repetition factor.
    pub unroll: u32,
    /// Decorrelated per-variant data seed.
    pub data_seed: u64,
    /// Grid index within the family (row-major over trips × unrolls).
    pub index: u64,
    /// The instantiated kernel or assembly.
    pub payload: Payload,
}

/// Variant naming scheme (also documented in DESIGN.md §15).
#[must_use]
pub fn variant_name(family: &str, trip: u32, unroll: u32) -> String {
    format!("gen.{family}.t{trip}.u{unroll}")
}

/// Expand one spec into its full family, in grid order (trips outer,
/// unrolls inner).
pub fn expand(spec: &FamilySpec) -> Result<Vec<Variant>, String> {
    spec.validate()?;
    let mut out = Vec::with_capacity(spec.variant_count());
    let mut index = 0u64;
    for &trip in &spec.trips {
        for &unroll in &spec.unrolls {
            let data_seed = mix(spec.seed, index);
            let name = variant_name(&spec.family, trip, unroll);
            let payload = emit::emit(spec, &name, trip, unroll, data_seed)?;
            out.push(Variant {
                name,
                family: spec.family.clone(),
                trip,
                unroll,
                data_seed,
                index,
                payload,
            });
            index += 1;
        }
    }
    Ok(out)
}

/// Expand many specs, rejecting duplicate family names and duplicate
/// variant names across the whole set.
pub fn expand_all(specs: &[FamilySpec]) -> Result<Vec<Variant>, String> {
    let mut seen = std::collections::BTreeSet::new();
    for s in specs {
        if !seen.insert(s.family.clone()) {
            return Err(format!("duplicate family name {:?}", s.family));
        }
    }
    let mut out = Vec::new();
    for s in specs {
        out.extend(expand(s)?);
    }
    Ok(out)
}
