//! The query front end as it was before its lean rewrite: the zero-copy
//! lexer, the three-level recursive-descent parser and the validator, kept
//! verbatim (module paths aside, and with their unit tests left in `src/`)
//! as the oracle `parse_query` + `resolve` are compared against, value for
//! value and error for error. It has no depth limit, so it is only fed
//! expressions shallow enough for any stack.

#![allow(dead_code)]

pub mod lexer;
pub mod parser;
pub mod token;
pub mod validate;
