//! Semantic analysis: AST → resolved [`Problem`].
//!
//! Checks performed:
//!
//! * duplicate variable names and duplicate flow names;
//! * unresolvable symbolic endpoint names;
//! * attribute references to unknown flows;
//! * `size` reference cycles (rate cycles are *allowed* — they express
//!   coupled rates, as in the paper's daisy-chain example);
//! * degenerate flows (`disk -> disk`, variable used as its own pool value).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::ast::{AttrKind, EndpointAst, Expr, FlowRef, Query};
use crate::error::{LangError, Span};
use crate::problem::{Address, Endpoint, ExprR, Flow, FlowId, Problem, Value, VarId, Variable};

/// Resolves symbolic endpoint names to addresses.
pub trait Resolver {
    /// Returns the address for `name`, or `None` if unknown.
    fn resolve(&self, name: &str) -> Option<Address>;
}

/// A resolver backed by an explicit name → address map.
#[derive(Clone, Debug, Default)]
pub struct MapResolver {
    map: HashMap<String, Address>,
}

impl MapResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a mapping, returning `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, addr: Address) -> Self {
        self.map.insert(name.into(), addr);
        self
    }

    /// Adds a mapping.
    pub fn insert(&mut self, name: impl Into<String>, addr: Address) {
        self.map.insert(name.into(), addr);
    }
}

impl Resolver for MapResolver {
    fn resolve(&self, name: &str) -> Option<Address> {
        self.map.get(name).copied()
    }
}

/// A resolver that assigns a fresh address to every new name it sees.
///
/// Convenient for tests and examples where hosts are purely symbolic.
/// Addresses are allocated sequentially starting from `10.0.0.1`.
#[derive(Debug, Default)]
pub struct InterningResolver {
    inner: RefCell<(HashMap<String, Address>, u32)>,
}

impl InterningResolver {
    /// Creates an interning resolver starting at `10.0.0.1`.
    pub fn new() -> Self {
        InterningResolver {
            inner: RefCell::new((HashMap::new(), 0x0A00_0001)),
        }
    }

    /// Returns the interned table so callers can map addresses back to names.
    pub fn table(&self) -> HashMap<String, Address> {
        self.inner.borrow().0.clone()
    }
}

impl Resolver for InterningResolver {
    fn resolve(&self, name: &str) -> Option<Address> {
        let mut inner = self.inner.borrow_mut();
        if let Some(addr) = inner.0.get(name) {
            return Some(*addr);
        }
        let addr = Address(inner.1);
        inner.1 += 1;
        inner.0.insert(name.to_string(), addr);
        Some(addr)
    }
}

/// Resolves a parsed query into a problem instance.
///
/// # Examples
///
/// ```
/// use cloudtalk_lang::{parse_query, resolve, MapResolver, Address};
///
/// let q = parse_query("A = (10.0.0.2 10.0.0.3)\nf1 A -> client size 256M").unwrap();
/// let resolver = MapResolver::new().with("client", Address(0x0A000001));
/// let problem = resolve(&q, &resolver).unwrap();
/// assert_eq!(problem.vars.len(), 1);
/// assert_eq!(problem.flows.len(), 1);
/// ```
pub fn resolve(query: &Query, resolver: &impl Resolver) -> Result<Problem, LangError> {
    let mut problem = Problem {
        vars: Vec::new(),
        flows: Vec::new(),
        distinct: true,
    };
    // Names are looked up as slices of the AST: nothing is cloned per use.
    let mut var_names: HashMap<&str, VarId> = HashMap::new();

    // Pass 1: variables.
    for (pool, decl) in query.var_decls().enumerate() {
        let mut candidates = Vec::with_capacity(decl.values.len());
        for value in &decl.values {
            candidates.push(match value {
                EndpointAst::Addr { addr, span } => {
                    if *addr == 0 {
                        return Err(LangError::new(
                            "`0.0.0.0` (unknown) cannot be a candidate value",
                            *span,
                        ));
                    }
                    Value::Addr(Address(*addr))
                }
                EndpointAst::Disk { .. } => Value::Disk,
                EndpointAst::Name(ident) => {
                    let addr = resolver.resolve(&ident.text).ok_or_else(|| {
                        LangError::new(
                            format!("unknown host `{}` in value pool", ident.text),
                            ident.span,
                        )
                    })?;
                    Value::Addr(addr)
                }
            });
        }
        let last = decl.names.len().saturating_sub(1);
        for (i, name) in decl.names.iter().enumerate() {
            let id = VarId(problem.vars.len());
            if var_names.insert(&name.text, id).is_some() {
                return Err(LangError::new(
                    format!("variable `{}` declared twice", name.text),
                    name.span,
                ));
            }
            problem.vars.push(Variable {
                name: name.text.clone(),
                // Same-pool variables each own a copy; the last takes the
                // original.
                candidates: if i == last {
                    std::mem::take(&mut candidates)
                } else {
                    candidates.clone()
                },
                pool,
            });
        }
    }

    // Pass 2: flow names (so references can be forward).
    let mut flow_names: HashMap<&str, FlowId> = HashMap::new();
    for (idx, flow) in query.flows().enumerate() {
        if let Some(name) = &flow.name {
            if flow_names.insert(&name.text, FlowId(idx)).is_some() {
                return Err(LangError::new(
                    format!("flow `{}` defined twice", name.text),
                    name.span,
                ));
            }
            if var_names.contains_key(name.text.as_str()) {
                return Err(LangError::new(
                    format!("`{}` is both a variable and a flow name", name.text),
                    name.span,
                ));
            }
        }
    }

    // Pass 3: flows.
    let n_flows = query.flows().count();
    problem.flows.reserve_exact(n_flows);
    for flow_def in query.flows() {
        let src = resolve_endpoint(&flow_def.src, &var_names, resolver)?;
        let dst = resolve_endpoint(&flow_def.dst, &var_names, resolver)?;
        if src == Endpoint::Disk && dst == Endpoint::Disk {
            return Err(LangError::new(
                "flow cannot have `disk` as both endpoints",
                flow_def.span,
            ));
        }
        let mut flow = Flow::new(flow_def.name.as_ref().map(|n| n.text.clone()), src, dst);
        for attr in &flow_def.attrs {
            let expr = resolve_expr(&attr.value, &flow_names, n_flows)?;
            flow.set_attr(attr.kind, expr);
        }
        problem.flows.push(flow);
    }

    check_size_cycles(&problem)?;
    Ok(problem)
}

fn resolve_endpoint(
    ep: &EndpointAst,
    vars: &HashMap<&str, VarId>,
    resolver: &impl Resolver,
) -> Result<Endpoint, LangError> {
    Ok(match ep {
        EndpointAst::Addr { addr: 0, .. } => Endpoint::Unknown,
        EndpointAst::Addr { addr, .. } => Endpoint::Addr(Address(*addr)),
        EndpointAst::Disk { .. } => Endpoint::Disk,
        EndpointAst::Name(ident) => {
            if let Some(var) = vars.get(ident.text.as_str()) {
                Endpoint::Var(*var)
            } else if let Some(addr) = resolver.resolve(&ident.text) {
                Endpoint::Addr(addr)
            } else {
                return Err(LangError::new(
                    format!(
                        "`{}` is neither a declared variable nor a known host",
                        ident.text
                    ),
                    ident.span,
                ));
            }
        }
    })
}

fn resolve_expr(
    expr: &Expr,
    flows: &HashMap<&str, FlowId>,
    n_flows: usize,
) -> Result<ExprR, LangError> {
    Ok(match expr {
        Expr::Literal { value, .. } => ExprR::Literal(*value),
        Expr::Ref { attr, flow, span } => {
            let id = match flow {
                FlowRef::Named(ident) => *flows.get(ident.text.as_str()).ok_or_else(|| {
                    LangError::new(
                        format!("reference to unknown flow `{}`", ident.text),
                        *span,
                    )
                })?,
                FlowRef::Index { index, span } => {
                    if *index == 0 || *index > n_flows {
                        return Err(LangError::new(
                            format!(
                                "flow index {index} out of range (query has {n_flows} flows)"
                            ),
                            *span,
                        ));
                    }
                    FlowId(index - 1)
                }
            };
            ExprR::Ref(*attr, id)
        }
        Expr::Binary { op, lhs, rhs } => ExprR::Binary(
            *op,
            Box::new(resolve_expr(lhs, flows, n_flows)?),
            Box::new(resolve_expr(rhs, flows, n_flows)?),
        ),
    })
}

/// Rejects cyclic `size` references (`sz(f)` chains must be a DAG; a flow's
/// size depending on itself has no solution).
fn check_size_cycles(problem: &Problem) -> Result<(), LangError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = problem.flows.len();
    let mut marks = vec![Mark::White; n];

    fn visit(problem: &Problem, marks: &mut [Mark], idx: usize) -> Result<(), LangError> {
        marks[idx] = Mark::Grey;
        if let Some(expr) = problem.flows[idx].attr(AttrKind::Size) {
            let mut cycle: Option<usize> = None;
            expr.for_each_ref(&mut |attr, flow| {
                if attr == crate::ast::RefAttr::Size {
                    match marks[flow.0] {
                        Mark::Grey => cycle = Some(flow.0),
                        Mark::White => {
                            // Recurse below (collected first to keep closure simple).
                        }
                        Mark::Black => {}
                    }
                }
            });
            if let Some(at) = cycle {
                let name = problem.flows[at]
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("#{at}"));
                return Err(LangError::new(
                    format!("cyclic `size` reference involving flow `{name}`"),
                    Span::DUMMY,
                ));
            }
            let mut targets = Vec::new();
            expr.for_each_ref(&mut |attr, flow| {
                if attr == crate::ast::RefAttr::Size && marks[flow.0] == Mark::White {
                    targets.push(flow.0);
                }
            });
            for t in targets {
                if marks[t] == Mark::White {
                    visit(problem, marks, t)?;
                }
            }
        }
        marks[idx] = Mark::Black;
        Ok(())
    }

    for i in 0..n {
        if marks[i] == Mark::White {
            visit(problem, &mut marks, i)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn intern(src: &str) -> Result<Problem, LangError> {
        resolve(&parse_query(src).unwrap(), &InterningResolver::new())
    }

    #[test]
    fn resolves_figure2() {
        let p = intern("A = (10.0.0.2 10.0.0.3)\nf1 A -> 10.0.0.1 size 256M").unwrap();
        assert_eq!(p.vars.len(), 1);
        assert_eq!(p.vars[0].candidates.len(), 2);
        assert_eq!(p.flows[0].src, Endpoint::Var(VarId(0)));
        assert_eq!(p.flows[0].dst, Endpoint::Addr(Address(0x0A000001)));
    }

    #[test]
    fn chained_vars_share_pool() {
        let p = intern("B = C = D = (s1 s2 s3)").unwrap();
        assert_eq!(p.vars.len(), 3);
        assert!(p.vars.iter().all(|v| v.pool == 0));
        assert_eq!(p.vars[0].candidates, p.vars[2].candidates);
    }

    #[test]
    fn separate_decls_get_separate_pools() {
        let p = intern("A = (x y)\nB = (z w)").unwrap();
        assert_eq!(p.vars[0].pool, 0);
        assert_eq!(p.vars[1].pool, 1);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let err = intern("A = (x y)\nA = (z)").unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn duplicate_flow_name_rejected() {
        let err = intern("f1 a -> b size 1\nf1 b -> a size 1").unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn unknown_flow_ref_rejected() {
        let err = intern("f1 a -> b size sz(f9)").unwrap_err();
        assert!(err.message.contains("unknown flow"));
    }

    #[test]
    fn index_references_resolve() {
        let p = intern("f1 a -> b size 100M\nf2 b -> c size sz(1)").unwrap();
        assert_eq!(
            p.flows[1].attr(AttrKind::Size),
            Some(&ExprR::Ref(crate::ast::RefAttr::Size, FlowId(0)))
        );
    }

    #[test]
    fn out_of_range_index_rejected() {
        let err = intern("f1 a -> b size sz(7)").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn rate_cycles_allowed() {
        // Coupled rates are the paper's idiom for pipelined transfers.
        let p = intern(
            "f1 disk -> a size 100M rate r(f2)\nf2 a -> b size sz(f1) rate r(f1)",
        );
        assert!(p.is_ok());
    }

    #[test]
    fn size_self_cycle_rejected() {
        let err = intern("f1 a -> b size sz(f2)\nf2 b -> c size sz(f1)").unwrap_err();
        assert!(err.message.contains("cyclic"));
    }

    #[test]
    fn disk_to_disk_rejected() {
        let err = intern("disk -> disk size 1").unwrap_err();
        assert!(err.message.contains("disk"));
    }

    #[test]
    fn unknown_source_resolves() {
        let p = intern("f1 0.0.0.0 -> a size 1G").unwrap();
        assert_eq!(p.flows[0].src, Endpoint::Unknown);
    }

    #[test]
    fn unknown_in_pool_rejected() {
        let err = intern("A = (0.0.0.0 10.0.0.1)").unwrap_err();
        assert!(err.message.contains("candidate"));
    }

    #[test]
    fn disk_allowed_in_pool() {
        let p = intern("A = (disk 10.0.0.1)\nf1 A -> 10.0.0.2 size 1M").unwrap();
        assert_eq!(p.vars[0].candidates[0], Value::Disk);
    }

    #[test]
    fn map_resolver_rejects_unknown_names() {
        let q = parse_query("f1 mystery -> 10.0.0.1 size 1").unwrap();
        let err = resolve(&q, &MapResolver::new()).unwrap_err();
        assert!(err.message.contains("mystery"));
    }

    #[test]
    fn variable_and_flow_name_collision_rejected() {
        let err = intern("A = (x y)\nA b -> c size 1").unwrap_err();
        assert!(err.message.contains("both a variable and a flow"));
    }

    #[test]
    fn mentioned_addresses_cover_pools_and_endpoints() {
        let p = intern("A = (10.0.0.5 10.0.0.6)\nf1 A -> 10.0.0.7 size 1").unwrap();
        let addrs = p.mentioned_addresses();
        assert_eq!(addrs.len(), 3);
    }
}
