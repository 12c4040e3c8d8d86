//! OO7 database parameters (Table 1 of the paper).

/// How connection objects reference their endpoints.
///
/// The style determines how much structure one pointer overwrite can
/// detach, and therefore the database's garbage-per-overwrite constant —
/// the quantity whose underestimation sinks the §2.1 heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnStyle {
    /// Full OO7-style bidirectional association: the connection holds
    /// `[from, to]` pointers and both endpoint parts hold a slot for it.
    /// Deletion must clear both sides of every connection (default).
    #[default]
    Bidirectional,
    /// Forward-only: the connection holds just `[to]` and only the source
    /// part references it. Killing one source slot detaches the
    /// connection, and killing the parts-set pointer detaches the part
    /// *with all its outgoing connections* — single overwrites free whole
    /// structures, raising garbage-per-overwrite substantially (the §2.1
    /// cluster-detachment effect).
    Forward,
}

/// OO7 benchmark parameters plus the object-size model.
///
/// The structural parameters mirror Table 1; the byte sizes are chosen so
/// the measured database matches the paper's reported characteristics
/// (average object size ≈ 133 bytes, Small′ database of a few megabytes
/// growing with connectivity — see `DbCharacteristics` tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oo7Params {
    /// Atomic parts per composite part (Table 1: 20).
    pub num_atomic_per_comp: u32,
    /// Outgoing connections per atomic part (Table 1: 3 / 6 / 9).
    pub num_conn_per_atomic: u32,
    /// Document size in bytes (Table 1: 2000).
    pub document_size: u32,
    /// Manual size in bytes (Table 1: 100 kbytes).
    pub manual_size: u32,
    /// Composite parts per module (Table 1, Small′: 150).
    pub num_comp_per_module: u32,
    /// Child assemblies per complex assembly (Table 1: 3).
    pub num_assm_per_assm: u32,
    /// Assembly levels including the base level (Table 1, Small′: 6).
    pub num_assm_levels: u32,
    /// Composite parts referenced per base assembly (Table 1: 3).
    pub num_comp_per_assm: u32,
    /// Modules (Table 1: 1).
    pub num_modules: u32,

    // -- object-size model -------------------------------------------------
    /// Atomic part bytes.
    pub atomic_part_size: u32,
    /// Connection object bytes.
    pub connection_size: u32,
    /// Composite part bytes (header + parts set).
    pub composite_size: u32,
    /// Assembly bytes (complex or base).
    pub assembly_size: u32,
    /// Module bytes (header + design library).
    pub module_size: u32,

    // -- workload options ---------------------------------------------------
    /// Replace each composite's document during reorganizations: one
    /// pointer overwrite that disconnects a large object, the behavior
    /// §2.1 cites when explaining why size-based heuristics fail.
    pub replace_documents: bool,
    /// In-connection slot capacity per atomic part, as a multiple of the
    /// out-connection count. 2 is always sufficient in aggregate.
    pub in_conn_capacity_factor: u32,
    /// Connection reference style (see [`ConnStyle`]).
    pub conn_style: ConnStyle,
}

impl Oo7Params {
    /// The paper's Small′ database at the given atomic-part connectivity
    /// (3, 6 or 9 in the paper's experiments).
    pub fn small_prime(connectivity: u32) -> Self {
        Oo7Params {
            num_atomic_per_comp: 20,
            num_conn_per_atomic: connectivity,
            document_size: 2_000,
            manual_size: 100 * 1_024,
            num_comp_per_module: 150,
            num_assm_per_assm: 3,
            num_assm_levels: 6,
            num_comp_per_assm: 3,
            num_modules: 1,
            atomic_part_size: 200,
            connection_size: 100,
            composite_size: 250,
            assembly_size: 150,
            module_size: 500,
            replace_documents: true,
            in_conn_capacity_factor: 2,
            conn_style: ConnStyle::Bidirectional,
        }
    }

    /// The original OO7 Small database (500 composites, 7 assembly
    /// levels), as used by Yong–Naughton–Yu.
    pub fn small(connectivity: u32) -> Self {
        Oo7Params {
            num_comp_per_module: 500,
            num_assm_levels: 7,
            ..Oo7Params::small_prime(connectivity)
        }
    }

    /// A miniature database for unit tests: 4 composites of 6 parts.
    pub fn tiny() -> Self {
        Oo7Params {
            num_atomic_per_comp: 6,
            num_conn_per_atomic: 2,
            document_size: 120,
            manual_size: 500,
            num_comp_per_module: 4,
            num_assm_per_assm: 2,
            num_assm_levels: 2,
            num_comp_per_assm: 2,
            num_modules: 1,
            atomic_part_size: 40,
            connection_size: 16,
            composite_size: 48,
            assembly_size: 24,
            module_size: 64,
            replace_documents: true,
            in_conn_capacity_factor: 2,
            conn_style: ConnStyle::Bidirectional,
        }
    }

    /// Panics if the parameters are structurally unusable.
    pub fn validate(&self) {
        assert!(self.num_modules == 1, "multi-module databases unsupported");
        assert!(
            self.num_atomic_per_comp >= 2,
            "need ≥ 2 parts per composite"
        );
        assert!(
            self.num_conn_per_atomic >= 1 && self.num_conn_per_atomic < self.num_atomic_per_comp,
            "connectivity must be in [1, parts-1]"
        );
        assert!(self.num_assm_levels >= 1);
        assert!(self.num_assm_per_assm >= 1);
        assert!(self.num_comp_per_module >= 1);
        assert!(
            self.in_conn_capacity_factor >= 2,
            "in-slot capacity too small"
        );
        for size in [
            self.document_size,
            self.manual_size,
            self.atomic_part_size,
            self.connection_size,
            self.composite_size,
            self.assembly_size,
            self.module_size,
        ] {
            assert!(size >= 1, "object sizes must be positive");
        }
    }

    /// Complex (non-base) assemblies: a full `num_assm_per_assm`-ary tree
    /// of `num_assm_levels − 1` levels.
    pub fn num_complex_assemblies(&self) -> u64 {
        let f = u64::from(self.num_assm_per_assm);
        let mut total = 0;
        let mut level_count = 1;
        for _ in 0..self.num_assm_levels.saturating_sub(1) {
            total += level_count;
            level_count *= f;
        }
        total
    }

    /// Base assemblies: the leaves of the assembly tree.
    pub fn num_base_assemblies(&self) -> u64 {
        u64::from(self.num_assm_per_assm).pow(self.num_assm_levels.saturating_sub(1))
    }

    /// Total atomic parts in the initial database.
    pub fn num_atomic_parts(&self) -> u64 {
        u64::from(self.num_comp_per_module) * u64::from(self.num_atomic_per_comp)
    }

    /// Total connection objects in the initial database.
    pub fn num_connections(&self) -> u64 {
        self.num_atomic_parts() * u64::from(self.num_conn_per_atomic)
    }

    /// In-connection slot capacity per atomic part.
    pub fn in_conn_capacity(&self) -> u32 {
        self.num_conn_per_atomic * self.in_conn_capacity_factor
    }

    /// Parts deleted (and reinserted) per composite during a
    /// reorganization: half, per §3.4.
    pub fn parts_deleted_per_comp(&self) -> u32 {
        self.num_atomic_per_comp / 2
    }

    /// Estimated initial live bytes (excludes free space in partitions).
    pub fn estimated_live_bytes(&self) -> u64 {
        u64::from(self.module_size)
            + u64::from(self.manual_size)
            + (self.num_complex_assemblies() + self.num_base_assemblies())
                * u64::from(self.assembly_size)
            + u64::from(self.num_comp_per_module)
                * (u64::from(self.composite_size) + u64::from(self.document_size))
            + self.num_atomic_parts() * u64::from(self.atomic_part_size)
            + self.num_connections() * u64::from(self.connection_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_prime_matches_table_1() {
        let p = Oo7Params::small_prime(3);
        p.validate();
        assert_eq!(p.num_atomic_per_comp, 20);
        assert_eq!(p.num_conn_per_atomic, 3);
        assert_eq!(p.document_size, 2000);
        assert_eq!(p.manual_size, 102_400);
        assert_eq!(p.num_comp_per_module, 150);
        assert_eq!(p.num_assm_per_assm, 3);
        assert_eq!(p.num_assm_levels, 6);
        assert_eq!(p.num_comp_per_assm, 3);
        assert_eq!(p.num_modules, 1);
    }

    #[test]
    fn small_matches_yny_column() {
        let p = Oo7Params::small(3);
        p.validate();
        assert_eq!(p.num_comp_per_module, 500);
        assert_eq!(p.num_assm_levels, 7);
    }

    #[test]
    fn assembly_tree_counts() {
        let p = Oo7Params::small_prime(3);
        // Levels 1..5 complex: 1 + 3 + 9 + 27 + 81 = 121; level 6 base: 243.
        assert_eq!(p.num_complex_assemblies(), 121);
        assert_eq!(p.num_base_assemblies(), 243);
    }

    #[test]
    fn part_and_connection_counts_scale_with_connectivity() {
        let p3 = Oo7Params::small_prime(3);
        let p9 = Oo7Params::small_prime(9);
        assert_eq!(p3.num_atomic_parts(), 3_000);
        assert_eq!(p3.num_connections(), 9_000);
        assert_eq!(p9.num_connections(), 27_000);
    }

    #[test]
    fn estimated_size_is_megabytes_and_grows_with_connectivity() {
        let s3 = Oo7Params::small_prime(3).estimated_live_bytes();
        let s9 = Oo7Params::small_prime(9).estimated_live_bytes();
        // Paper: 3.7–7.9 MB across connectivities (DBSize counts allocated
        // partitions, which exceeds live bytes; live bytes land below).
        assert!(s3 > 1_500_000, "s3 = {s3}");
        assert!(s9 > s3 + 1_000_000, "s9 = {s9}");
        assert!(s9 < 8_000_000, "s9 = {s9}");
    }

    #[test]
    fn half_the_parts_are_deleted() {
        assert_eq!(Oo7Params::small_prime(3).parts_deleted_per_comp(), 10);
        assert_eq!(Oo7Params::tiny().parts_deleted_per_comp(), 3);
    }

    #[test]
    fn tiny_is_valid() {
        Oo7Params::tiny().validate();
    }

    #[test]
    #[should_panic(expected = "connectivity")]
    fn connectivity_must_leave_targets() {
        let mut p = Oo7Params::tiny();
        p.num_conn_per_atomic = p.num_atomic_per_comp;
        p.validate();
    }
}
