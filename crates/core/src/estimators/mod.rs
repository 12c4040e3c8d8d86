//! Estimator state kept across collections (§2.4): only FGS/HB carries
//! any; Oracle and CGS/CB are stateless arms of [`crate::Estimator`].

pub mod fgs_hb;
