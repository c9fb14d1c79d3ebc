//! The paper's empirical study as queryable data.
//!
//! The dataset behind "Ad Hoc Transactions in Web Applications" is a
//! human-curated catalog of 91 ad hoc transactions across 8 applications.
//! This crate encodes that catalog ([`corpus_data::CASES`], one record per
//! case and the corpus's one source), the application metadata of Table 2
//! ([`corpus::APPLICATIONS`]), the related-work comparison of Table 1
//! ([`related`]), and the coordination-hints survey of Table 7 ([`hints`])
//! — and derives every table and numbered finding from them:
//!
//! * [`tables`] — Tables 2, 3, 4, 5a and 5b as structured values.
//! * [`findings`] — Findings 1–8 as computed statistics.
//! * [`confluence`] — the invariant-confluence split, counted from each
//!   record's `confluence` bucket.
//! * [`report`] — plain-text renderings in the paper's layout (used by the
//!   `paper-eval` binary).
//! * [`playbook`] — flagship cases mapped to the executable artifact that
//!   demonstrates them in this workspace.
//!
//! The paper publishes aggregates; per-case attributes here are a consistent
//! reconstruction (see `corpus_data`), edited in place, and this crate's
//! tests assert that every published aggregate matches exactly.

#![warn(missing_docs)]

pub mod case;
pub mod confluence;
pub mod corpus;
pub mod corpus_data;
pub mod extension;
pub mod findings;
pub mod hints;
pub mod playbook;
pub mod related;
pub mod report;
pub mod tables;

pub use case::{App, Case};
pub use corpus_data::CASES;
pub use extension::{render_extension, ExtensionCase, EXTENSION_CASES};
