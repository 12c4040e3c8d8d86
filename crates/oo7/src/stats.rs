//! Measured characteristics of the generated database (Table 1 checks).

use std::collections::BTreeMap;

use crate::model::GenState;
use crate::schema::Kind;

/// A census of the live database as mirrored by the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DbCharacteristics {
    /// Live objects per kind.
    pub counts: BTreeMap<Kind, u64>,
    /// Live bytes per kind.
    pub bytes: BTreeMap<Kind, u64>,
    /// Non-null pointers in the live database.
    pub pointers: u64,
}

impl DbCharacteristics {
    /// Measures the current mirror state.
    pub fn measure(state: &GenState) -> DbCharacteristics {
        let p = &state.params;
        let m = &state.module;
        let mut counts: BTreeMap<Kind, u64> = BTreeMap::new();
        let mut pointers = 0u64;

        counts.insert(Kind::Module, 1);
        counts.insert(Kind::Manual, 1);
        pointers += 2 + u64::from(p.num_comp_per_module); // manual + root + library

        let complex = m.assemblies.iter().filter(|a| !a.is_base).count() as u64;
        let base = m.assemblies.iter().filter(|a| a.is_base).count() as u64;
        counts.insert(Kind::ComplexAssembly, complex);
        counts.insert(Kind::BaseAssembly, base);
        for a in &m.assemblies {
            pointers += a.children.len() as u64 + a.composites.len() as u64;
        }

        let mut parts = 0u64;
        let mut conns = 0u64;
        let mut docs = 0u64;
        for comp in &m.composites {
            docs += 1;
            pointers += 1; // document pointer
            for pm in comp.parts().iter().flatten() {
                parts += 1;
                pointers += 1; // parts-set pointer
                let out = pm.out_degree() as u64;
                conns += out;
                // Pointers per connection: bidirectional = from.out slot,
                // to.in slot, plus the connection's own two endpoint
                // pointers; forward = from.out slot plus the connection's
                // single `to` pointer.
                pointers += out
                    * match p.conn_style {
                        crate::params::ConnStyle::Bidirectional => 4,
                        crate::params::ConnStyle::Forward => 2,
                    };
            }
        }
        counts.insert(Kind::CompositePart, m.composites.len() as u64);
        counts.insert(Kind::Document, docs);
        counts.insert(Kind::AtomicPart, parts);
        counts.insert(Kind::Connection, conns);

        let bytes = counts
            .iter()
            .map(|(&k, &n)| (k, n * u64::from(k.size(p))))
            .collect();
        DbCharacteristics {
            counts,
            bytes,
            pointers,
        }
    }

    /// Total live objects.
    pub fn total_objects(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Total live bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }

    /// Average object size in bytes.
    pub fn avg_object_size(&self) -> f64 {
        if self.total_objects() == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.total_objects() as f64
        }
    }

    /// Average pointers-per-object — the paper's "average connectivity"
    /// (each pointer is one incoming reference to some object).
    pub fn avg_connectivity(&self) -> f64 {
        if self.total_objects() == 0 {
            0.0
        } else {
            self.pointers as f64 / self.total_objects() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use crate::params::Oo7Params;

    #[test]
    fn tiny_census() {
        let p = Oo7Params::tiny();
        let state = build(p, 1);
        let c = DbCharacteristics::measure(&state);
        assert_eq!(c.counts[&Kind::Module], 1);
        assert_eq!(c.counts[&Kind::CompositePart], 4);
        assert_eq!(c.counts[&Kind::AtomicPart], 24);
        assert_eq!(c.counts[&Kind::Connection], 48);
        assert_eq!(c.counts[&Kind::Document], 4);
        assert!(c.total_bytes() > 0);
    }

    #[test]
    fn small_prime_matches_paper_scale() {
        let p = Oo7Params::small_prime(3);
        let state = build(p, 1);
        let c = DbCharacteristics::measure(&state);
        assert_eq!(c.total_objects(), 12_666);
        // Paper: average object size ≈ 133 bytes; our size model lands in
        // the same regime.
        let avg = c.avg_object_size();
        assert!((100.0..220.0).contains(&avg), "avg object size {avg}");
        // Paper: average connectivity ≈ 4 (pointers per object); ours is
        // in the same regime.
        let conn = c.avg_connectivity();
        assert!((2.5..5.0).contains(&conn), "avg connectivity {conn}");
        // Live bytes match the parameter-level estimate exactly.
        assert_eq!(c.total_bytes(), p.estimated_live_bytes());
    }

    #[test]
    fn database_grows_with_connectivity() {
        let b3 = {
            let s = build(Oo7Params::small_prime(3), 1);
            DbCharacteristics::measure(&s).total_bytes()
        };
        let b9 = {
            let s = build(Oo7Params::small_prime(9), 1);
            DbCharacteristics::measure(&s).total_bytes()
        };
        assert!(b9 > b3);
    }
}
