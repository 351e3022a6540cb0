//! The CloudTalk query language (paper §4.1, Table 1).
//!
//! A CloudTalk *query* describes a set of data flows — network transfers and
//! local-disk accesses — some of whose endpoints are free *variables* over a
//! pool of candidate servers. The cloud provider binds each variable to the
//! value that minimises task completion time.
//!
//! ```text
//! A = (vm2 vm3)
//! f1 A -> vm1 size 256M
//! ```
//!
//! This crate provides the full language pipeline:
//!
//! * [`lexer`] / [`parser`] — hand-written lexer and recursive-descent
//!   parser (the paper used flex/bison) producing a spanned [`ast::Query`].
//! * [`validate`] — semantic analysis resolving the AST into a
//!   [`problem::Problem`]: variables, flows with resolved endpoints, and
//!   checked attribute expressions (duplicate names, dangling references,
//!   size-reference cycles, …).
//! * [`builder`] — a programmatic [`builder::QueryBuilder`] used by the
//!   CloudTalk-enabled applications, guaranteeing well-formed queries.
//! * [`printer`] — canonical pretty-printing; `parse(print(q)) == q`.
//! * [`name`] — [`Name`], identifier text stored in place: the AST and the
//!   problem own their names without a heap allocation each.
//! * [`units`] — byte-size / rate literal suffixes (`256M`, `1G`).
//! * `hash` — [`WordHasher`], the one hasher of the query path, and the
//!   maps built on it; defined beside [`Address`] so that every table
//!   keyed by one can use it.
//!
//! # Examples
//!
//! ```
//! use cloudtalk_lang::parse_query;
//!
//! let query = parse_query("A = (10.0.0.2 10.0.0.3)\nf1 A -> 10.0.0.1 size 256M").unwrap();
//! assert_eq!(query.flows().count(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod error;
pub(crate) mod hash;
pub mod lexer;
pub mod name;
pub mod parser;
pub mod printer;
pub mod problem;
pub mod token;
pub mod units;
pub mod validate;

pub use error::{LangError, Span};
pub use hash::{BuildWordHasher, WordHasher, WordMap, WordSet};
pub use name::Name;
pub use parser::parse_query;
pub use problem::Address;
pub use validate::{resolve, MapResolver};
