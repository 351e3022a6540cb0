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

use cloudtalk_lang::ast::{AttrKind, EndpointAst, Expr, FlowDef, FlowRef, Query, RefAttr, VarDecl};
use cloudtalk_lang::error::{LangError, Span};
use cloudtalk_lang::name::Name;
use cloudtalk_lang::validate::Resolver;
use cloudtalk_lang::problem::{Address, Endpoint, ExprR, Flow, FlowId, Problem, Value, VarId, Variable};

/// Resolves a parsed query into a problem instance.
pub fn resolve(query: &Query, resolver: &impl Resolver) -> Result<Problem, LangError> {
    resolve_parts(query.var_decls(), query.flows(), resolver)
}

/// [`resolve`] over a query's declarations and flows wherever they are
/// kept: the statements of a parsed [`Query`], or the two lists of a
/// `QueryBuilder`. Every vector of the problem is sized
/// once, and names are compared in place: nothing is cloned, hashed or
/// allocated per identifier.
pub(crate) fn resolve_parts<'a>(
    decls: impl Iterator<Item = &'a VarDecl> + Clone,
    flows: impl Iterator<Item = &'a FlowDef> + Clone,
    resolver: &impl Resolver,
) -> Result<Problem, LangError> {
    let n_vars = decls.clone().map(|d| d.names.len()).sum();
    let n_flows = flows.clone().count();
    let var_names = NameIndex::new(
        decls
            .clone()
            .flat_map(|d| d.names.iter().map(|n| Some(&n.text))),
        n_vars,
    );
    // Flow names are indexed before any flow is resolved, so references
    // can be forward.
    let flow_names = NameIndex::new(
        flows.clone().map(|f| f.name.as_ref().map(|n| &n.text)),
        n_flows,
    );
    let mut problem = Problem {
        vars: Vec::with_capacity(n_vars),
        flows: Vec::with_capacity(n_flows),
        distinct: true,
    };

    // Pass 1: variables.
    for (pool, decl) in decls.enumerate() {
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
            if var_names.first_repeat == Some(problem.vars.len()) {
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

    // Pass 2: flow names.
    for (idx, flow) in flows.clone().enumerate() {
        if let Some(name) = &flow.name {
            if flow_names.first_repeat == Some(idx) {
                return Err(LangError::new(
                    format!("flow `{}` defined twice", name.text),
                    name.span,
                ));
            }
            if var_names.find(&name.text).is_some() {
                return Err(LangError::new(
                    format!("`{}` is both a variable and a flow name", name.text),
                    name.span,
                ));
            }
        }
    }

    // Pass 3: flows.
    let mut size_refs = false;
    for flow_def in flows.clone() {
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
            if attr.kind == AttrKind::Size {
                expr.for_each_ref(&mut |of, _| size_refs |= of == RefAttr::Size);
            }
            flow.set_attr(attr.kind, expr);
        }
        problem.flows.push(flow);
    }

    // Only a `size` that mentions `sz(…)` can close a cycle; most queries
    // have none and skip the walk and its scratch.
    if size_refs {
        if let Err((closing, at)) = check_size_cycles(&problem.flows) {
            let name = match &problem.flows[at].name {
                Some(name) => name.to_string(),
                None => format!("#{at}"),
            };
            let span = flows.clone().nth(closing).map_or(Span::DUMMY, |f| f.span);
            return Err(LangError::new(
                format!("cyclic `size` reference involving flow `{name}`"),
                span,
            ));
        }
    }
    Ok(problem)
}

/// Up to this many names of one kind — variables, or flows — a lookup
/// scans them: a few cache lines, cheaper than hashing one name. A query
/// with more gets a sorted index instead, so resolving stays
/// `O(n log n)` in the length of whatever text a tenant sends.
const SCAN_MAX: usize = 32;

/// Name → position in declaration order, over the variables or the flows
/// of one query.
struct NameIndex<'a, I> {
    /// Every position's name in order; `None` is an unnamed flow.
    names: I,
    /// `(name, position)` sorted; empty while the names are few enough to
    /// scan.
    sorted: Vec<(&'a Name, usize)>,
    /// The first position, in declaration order, whose name repeats an
    /// earlier one.
    first_repeat: Option<usize>,
}

impl<'a, I: Iterator<Item = Option<&'a Name>> + Clone> NameIndex<'a, I> {
    fn new(names: I, count: usize) -> Self {
        let mut sorted = Vec::new();
        let first_repeat = if count <= SCAN_MAX {
            let earlier = |(at, name): &(usize, Option<&Name>)| {
                name.is_some() && names.clone().take(*at).any(|n| n == *name)
            };
            names.clone().enumerate().find(earlier).map(|(at, _)| at)
        } else {
            sorted.extend(
                names
                    .clone()
                    .enumerate()
                    .filter_map(|(at, name)| Some((name?, at))),
            );
            sorted.sort_unstable();
            // Equal names are neighbours, earliest first.
            sorted
                .windows(2)
                .filter(|pair| pair[0].0 == pair[1].0)
                .map(|pair| pair[1].1)
                .min()
        };
        NameIndex {
            names,
            sorted,
            first_repeat,
        }
    }

    /// The position `name` was declared at. Only meaningful once the
    /// caller has rejected `first_repeat`.
    fn find(&self, name: &Name) -> Option<usize> {
        if self.sorted.is_empty() {
            return self.names.clone().position(|n| n == Some(name));
        }
        let at = self.sorted.binary_search_by(|(n, _)| (*n).cmp(name)).ok()?;
        Some(self.sorted[at].1)
    }
}

fn resolve_endpoint<'a>(
    ep: &EndpointAst,
    vars: &NameIndex<'a, impl Iterator<Item = Option<&'a Name>> + Clone>,
    resolver: &impl Resolver,
) -> Result<Endpoint, LangError> {
    Ok(match ep {
        EndpointAst::Addr { addr: 0, .. } => Endpoint::Unknown,
        EndpointAst::Addr { addr, .. } => Endpoint::Addr(Address(*addr)),
        EndpointAst::Disk { .. } => Endpoint::Disk,
        EndpointAst::Name(ident) => {
            if let Some(var) = vars.find(&ident.text) {
                Endpoint::Var(VarId(var))
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

fn resolve_expr<'a>(
    expr: &Expr,
    flows: &NameIndex<'a, impl Iterator<Item = Option<&'a Name>> + Clone>,
    n_flows: usize,
) -> Result<ExprR, LangError> {
    Ok(match expr {
        Expr::Literal { value, .. } => ExprR::Literal(*value),
        Expr::Ref { attr, flow, span } => {
            let id = match flow {
                FlowRef::Named(ident) => flows.find(&ident.text).ok_or_else(|| {
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
                    index - 1
                }
            };
            ExprR::Ref(*attr, FlowId(id))
        }
        Expr::Binary { op, lhs, rhs } => ExprR::Binary(
            *op,
            Box::new(resolve_expr(lhs, flows, n_flows)?),
            Box::new(resolve_expr(rhs, flows, n_flows)?),
        ),
    })
}

/// Rejects cyclic `size` references (`sz(f)` chains must be a DAG; a flow's
/// size depending on itself has no solution). The error is `(closing, at)`:
/// flow `closing`'s size refers back to flow `at`, which is still being
/// walked.
fn check_size_cycles(flows: &[Flow]) -> Result<(), (usize, usize)> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }

    fn visit(flows: &[Flow], marks: &mut [Mark], idx: usize) -> Result<(), (usize, usize)> {
        marks[idx] = Mark::Grey;
        if let Some(expr) = flows[idx].attr(AttrKind::Size) {
            // A reference back into the walk is reported before any other
            // is followed.
            let mut found = Ok(());
            expr.for_each_ref(&mut |attr, flow| {
                if attr == RefAttr::Size && marks[flow.0] == Mark::Grey {
                    found = Err((idx, flow.0));
                }
            });
            found?;
            expr.for_each_ref(&mut |attr, flow| {
                if found.is_ok() && attr == RefAttr::Size && marks[flow.0] == Mark::White {
                    found = visit(flows, marks, flow.0);
                }
            });
            found?;
        }
        marks[idx] = Mark::Black;
        Ok(())
    }

    let mut marks = vec![Mark::White; flows.len()];
    for i in 0..flows.len() {
        if marks[i] == Mark::White {
            visit(flows, &mut marks, i)?;
        }
    }
    Ok(())
}

