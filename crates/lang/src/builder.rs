//! Programmatic query construction.
//!
//! CloudTalk-enabled applications (HDFS, MapReduce, web search) build their
//! queries through [`QueryBuilder`] rather than string formatting: the
//! builder keeps well-formed declarations and flow definitions, renders
//! them as canonical query text (what would go over the wire to the real
//! CloudTalk server), and resolves them directly into a [`Problem`].
//!
//! # Examples
//!
//! The Figure 2 replica-read query:
//!
//! ```
//! use cloudtalk_lang::builder::QueryBuilder;
//! use cloudtalk_lang::{Address, units::sizes::MB};
//!
//! let mut b = QueryBuilder::new();
//! let a = b.variable("A", [Address(0x0A000002), Address(0x0A000003)]);
//! b.flow("f1").from_var(a).to_addr(Address(0x0A000001)).size(256.0 * MB);
//! let problem = b.resolve().unwrap();
//! assert_eq!(problem.vars.len(), 1);
//! let text = b.text();
//! assert!(text.contains("f1 A -> 10.0.0.1 size 256M"));
//! ```

use crate::ast::{Attr, AttrKind, EndpointAst, Expr, FlowDef, FlowRef, Ident, RefAttr, VarDecl};
use crate::error::{LangError, Span};
use crate::name::Name;
use crate::printer::print_parts;
use crate::problem::{Address, Problem};
use crate::validate::{resolve_parts, MapResolver};

/// Handle to a declared variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VarHandle(usize);

/// Handle to a declared flow (usable in attribute references).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowHandle(usize);

/// Builds CloudTalk queries programmatically.
#[derive(Default)]
pub struct QueryBuilder {
    decls: Vec<VarDecl>,
    var_names: Vec<Name>,
    flows: Vec<FlowDef>,
    next_flow_id: usize,
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a variable over a pool of candidate addresses.
    pub fn variable(
        &mut self,
        name: impl Into<String>,
        pool: impl IntoIterator<Item = Address>,
    ) -> VarHandle {
        self.variable_group([name.into()], pool)
            .into_iter()
            .next()
            .expect("one name yields one handle")
    }

    /// Declares several variables sharing one pool (`B = C = D = (…)`),
    /// bound to distinct values by default.
    pub fn variable_group(
        &mut self,
        names: impl IntoIterator<Item = String>,
        pool: impl IntoIterator<Item = Address>,
    ) -> Vec<VarHandle> {
        let names: Vec<Ident> = names.into_iter().map(Ident::synthetic).collect();
        let values: Vec<EndpointAst> = pool
            .into_iter()
            .map(|a| EndpointAst::Addr {
                addr: a.0,
                span: Span::DUMMY,
            })
            .collect();
        let mut handles = Vec::with_capacity(names.len());
        for name in &names {
            handles.push(VarHandle(self.var_names.len()));
            self.var_names.push(name.text.clone());
        }
        self.decls.push(VarDecl {
            names,
            values,
            span: Span::DUMMY,
        });
        handles
    }

    /// Starts defining a named flow; finish it with the [`FlowBuilder`]
    /// endpoint and attribute methods.
    pub fn flow(&mut self, name: impl Into<Name>) -> FlowBuilder<'_> {
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.flows.push(FlowDef {
            name: Some(Ident::synthetic(name)),
            src: EndpointAst::Addr {
                addr: 0,
                span: Span::DUMMY,
            },
            dst: EndpointAst::Addr {
                addr: 0,
                span: Span::DUMMY,
            },
            attrs: Vec::new(),
            span: Span::DUMMY,
        });
        FlowBuilder { builder: self, id }
    }

    /// Renders the canonical query text (the wire representation).
    pub fn text(&self) -> String {
        print_parts(self.decls.iter(), self.flows.iter())
    }

    /// Resolves the built query into a problem instance.
    ///
    /// Builder queries only use literal addresses, so no name resolution
    /// is needed; errors indicate a structurally invalid query.
    pub fn resolve(&self) -> Result<Problem, LangError> {
        resolve_parts(self.decls.iter(), self.flows.iter(), &MapResolver::new())
    }
}

/// Fluent construction of a single flow.
pub struct FlowBuilder<'a> {
    builder: &'a mut QueryBuilder,
    id: usize,
}

impl FlowBuilder<'_> {
    fn def(&mut self) -> &mut FlowDef {
        &mut self.builder.flows[self.id]
    }

    fn var_endpoint(&self, var: VarHandle) -> EndpointAst {
        EndpointAst::Name(Ident::synthetic(self.builder.var_names[var.0].clone()))
    }

    /// Sets the source to a fixed address.
    pub fn from_addr(mut self, addr: Address) -> Self {
        self.def().src = EndpointAst::Addr {
            addr: addr.0,
            span: Span::DUMMY,
        };
        self
    }

    /// Sets the source to a variable.
    pub fn from_var(mut self, var: VarHandle) -> Self {
        let ep = self.var_endpoint(var);
        self.def().src = ep;
        self
    }

    /// Sets the source to the local disk.
    pub fn from_disk(mut self) -> Self {
        self.def().src = EndpointAst::Disk { span: Span::DUMMY };
        self
    }

    /// Sets the source to "unknown" (`0.0.0.0`) — traffic from outside.
    pub fn from_unknown(mut self) -> Self {
        self.def().src = EndpointAst::Addr {
            addr: 0,
            span: Span::DUMMY,
        };
        self
    }

    /// Sets the destination to a fixed address.
    pub fn to_addr(mut self, addr: Address) -> Self {
        self.def().dst = EndpointAst::Addr {
            addr: addr.0,
            span: Span::DUMMY,
        };
        self
    }

    /// Sets the destination to a variable.
    pub fn to_var(mut self, var: VarHandle) -> Self {
        let ep = self.var_endpoint(var);
        self.def().dst = ep;
        self
    }

    /// Sets the destination to the local disk.
    pub fn to_disk(mut self) -> Self {
        self.def().dst = EndpointAst::Disk { span: Span::DUMMY };
        self
    }

    /// Sets `size` to a byte literal.
    pub fn size(self, bytes: f64) -> Self {
        self.attr(AttrKind::Size, Expr::literal(bytes))
    }

    /// Sets `size` to reference another flow's size (`size sz(f)`).
    pub fn size_of(self, flow: FlowHandle) -> Self {
        let expr = self.ref_expr(RefAttr::Size, flow);
        self.attr(AttrKind::Size, expr)
    }

    /// Sets `rate` to a bytes-per-second literal.
    pub fn rate(self, bps: f64) -> Self {
        self.attr(AttrKind::Rate, Expr::literal(bps))
    }

    /// Couples this flow's rate to another flow's (`rate r(f)`).
    pub fn rate_of(self, flow: FlowHandle) -> Self {
        let expr = self.ref_expr(RefAttr::Rate, flow);
        self.attr(AttrKind::Rate, expr)
    }

    /// Chains on another flow's delivered bytes (`transfer t(f)`).
    pub fn transfer_of(self, flow: FlowHandle) -> Self {
        let expr = self.ref_expr(RefAttr::Transferred, flow);
        self.attr(AttrKind::Transfer, expr)
    }

    /// Sets `start` (seconds from now).
    pub fn start(self, secs: f64) -> Self {
        self.attr(AttrKind::Start, Expr::literal(secs))
    }

    /// Sets `end` (seconds from now).
    pub fn end(self, secs: f64) -> Self {
        self.attr(AttrKind::End, Expr::literal(secs))
    }

    /// Sets an arbitrary attribute expression; setting a kind again
    /// replaces its earlier value.
    pub fn attr(mut self, kind: AttrKind, value: Expr) -> Self {
        let attrs = &mut self.def().attrs;
        match attrs.iter_mut().find(|a| a.kind == kind) {
            Some(attr) => attr.value = value,
            None => attrs.push(Attr {
                kind,
                value,
                span: Span::DUMMY,
            }),
        }
        self
    }

    /// Returns this flow's handle for later references.
    pub fn handle(&self) -> FlowHandle {
        FlowHandle(self.id)
    }

    fn ref_expr(&self, attr: RefAttr, flow: FlowHandle) -> Expr {
        let name = self.builder.flows[flow.0]
            .name
            .as_ref()
            .expect("builder flows are always named")
            .text
            .clone();
        Expr::Ref {
            attr,
            flow: FlowRef::Named(Ident::synthetic(name)),
            span: Span::DUMMY,
        }
    }
}

/// Builds the daisy-chain HDFS write query of §5.3 for `replicas` replicas:
/// client → r1 → disk, r1 → r2 → disk, … with coupled rates and
/// store-and-forward `transfer` chaining.
pub fn hdfs_write_query(
    client: Address,
    datanodes: &[Address],
    replicas: usize,
    block_bytes: f64,
) -> QueryBuilder {
    let mut b = QueryBuilder::new();
    let names: Vec<String> = (1..=replicas).map(|i| format!("r{i}")).collect();
    let vars = b.variable_group(names, datanodes.iter().copied());

    let mut prev_net: Option<FlowHandle> = None;
    let mut prev_disk: Option<FlowHandle> = None;
    for (i, &var) in vars.iter().enumerate() {
        let net_name = format!("f{}", 2 * i + 1);
        let disk_name = format!("f{}", 2 * i + 2);
        // Network hop into replica i.
        let mut net = b.flow(&net_name);
        net = if i == 0 {
            net.from_addr(client)
        } else {
            net.from_var(vars[i - 1])
        };
        net = net.to_var(var).size(block_bytes);
        if let Some(upstream_disk) = prev_disk {
            net = net.transfer_of(upstream_disk);
        }
        let net_handle = net.handle();
        // Local store at replica i, rate-coupled with its network hop.
        let disk = b
            .flow(&disk_name)
            .from_var(var)
            .to_disk()
            .size(block_bytes)
            .rate_of(net_handle);
        let disk_handle = disk.handle();
        // Couple the network hop's rate back to the disk write.
        let net_def = &mut b.flows[net_handle.0];
        net_def.attrs.push(Attr {
            kind: AttrKind::Rate,
            value: Expr::Ref {
                attr: RefAttr::Rate,
                flow: FlowRef::Named(Ident::synthetic(disk_name)),
                span: Span::DUMMY,
            },
            span: Span::DUMMY,
        });
        prev_net = Some(net_handle);
        prev_disk = Some(disk_handle);
    }
    let _ = prev_net;
    b
}

/// Builds the all-variable daisy chain of Figure 3 over `n_vars` hops
/// drawn from one pool: `f1 x1 -> x2 size <bytes>`, then
/// `f_i x_i -> x_{i+1} size sz(f_{i-1}) transfer t(f_{i-1})`. Each hop is
/// its own rate component, linked to the last only by transfer precedence.
pub fn daisy_chain_query(pool: &[Address], n_vars: usize, bytes: f64) -> QueryBuilder {
    let mut b = QueryBuilder::new();
    let names: Vec<String> = (1..=n_vars).map(|i| format!("x{i}")).collect();
    let vars = b.variable_group(names, pool.iter().copied());
    let mut prev = None;
    for (i, hop) in vars.windows(2).enumerate() {
        let f = b.flow(format!("f{}", i + 1)).from_var(hop[0]).to_var(hop[1]);
        let f = match prev {
            None => f.size(bytes),
            Some(h) => f.size_of(h).transfer_of(h),
        };
        prev = Some(f.handle());
    }
    b
}

/// Builds the §5.3 HDFS replica-read query: `src = (replica…); f1 src -> reader size block`.
pub fn hdfs_read_query(reader: Address, replicas: &[Address], block_bytes: f64) -> QueryBuilder {
    let mut b = QueryBuilder::new();
    let src = b.variable("src", replicas.iter().copied());
    b.flow("f1").from_var(src).to_addr(reader).size(block_bytes);
    b
}

/// Builds the §5.3 reduce-placement query: `m` variables over `nodes`, each
/// receiving `bytes` from an unknown source and spilling to disk.
pub fn reduce_placement_query(nodes: &[Address], m: usize, bytes: f64) -> QueryBuilder {
    let mut b = QueryBuilder::new();
    let names: Vec<String> = (1..=m).map(|i| format!("x{i}")).collect();
    let vars = b.variable_group(names, nodes.iter().copied());
    for (i, &var) in vars.iter().enumerate() {
        let net_name = format!("f{}", 2 * i + 1);
        let disk_name = format!("f{}", 2 * i + 2);
        let net = b
            .flow(&net_name)
            .from_unknown()
            .to_var(var)
            .size(bytes);
        let net_handle = net.handle();
        let disk = b
            .flow(&disk_name)
            .from_var(var)
            .to_disk()
            .size(bytes)
            .rate_of(net_handle);
        let disk_handle = disk.handle();
        let net_def = &mut b.flows[net_handle.0];
        net_def.attrs.push(Attr {
            kind: AttrKind::Rate,
            value: Expr::Ref {
                attr: RefAttr::Rate,
                flow: FlowRef::Named(Ident::synthetic(disk_name)),
                span: Span::DUMMY,
            },
            span: Span::DUMMY,
        });
        let _ = disk_handle;
    }
    b
}

/// Builds the §5.3 map-placement query: one variable over nodes holding the
/// split, reading from disk and streaming to the worker.
pub fn map_placement_query(worker: Address, holders: &[Address], bytes: f64) -> QueryBuilder {
    let mut b = QueryBuilder::new();
    let x = b.variable("X", holders.iter().copied());
    let read = b.flow("f1").from_disk().to_var(x).size(bytes);
    let read_handle = read.handle();
    let send = b
        .flow("f2")
        .from_var(x)
        .to_addr(worker)
        .size_of(read_handle)
        .rate_of(read_handle);
    let send_handle = send.handle();
    let read_def = &mut b.flows[read_handle.0];
    read_def.attrs.push(Attr {
        kind: AttrKind::Rate,
        value: Expr::Ref {
            attr: RefAttr::Rate,
            flow: FlowRef::Named(Ident::synthetic("f2")),
            span: Span::DUMMY,
        },
        span: Span::DUMMY,
    });
    let _ = send_handle;
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use crate::problem::Endpoint;
    use crate::units::sizes::MB;

    #[test]
    fn builder_text_parses_back() {
        let mut b = QueryBuilder::new();
        let a = b.variable("A", [Address(0x0A000002), Address(0x0A000003)]);
        b.flow("f1")
            .from_var(a)
            .to_addr(Address(0x0A000001))
            .size(256.0 * MB);
        let text = b.text();
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(reparsed.flows().count(), 1);
        assert_eq!(reparsed.var_decls().count(), 1);
    }

    #[test]
    fn daisy_query_shape() {
        let addrs: Vec<Address> = (1..=20).map(Address).collect();
        let p = daisy_chain_query(&addrs, 3, 100.0 * MB).resolve().unwrap();
        assert_eq!(p.vars.len(), 3);
        assert_eq!(p.flows.len(), 2);
    }

    #[test]
    fn hdfs_write_query_matches_paper_shape() {
        let nodes: Vec<Address> = (2..7).map(Address).collect();
        let b = hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB);
        let p = b.resolve().unwrap();
        assert_eq!(p.vars.len(), 3);
        assert_eq!(p.flows.len(), 6);
        // All three variables share one pool and must be distinct.
        assert!(p.vars.iter().all(|v| v.pool == 0));
        assert!(p.distinct);
        // Flows alternate network / disk.
        for (i, f) in p.flows.iter().enumerate() {
            assert_eq!(f.dst == Endpoint::Disk, i % 2 == 1, "flow {i}");
        }
        // The wire text is valid CloudTalk.
        assert!(parse_query(&b.text()).is_ok());
    }

    #[test]
    fn reduce_query_uses_unknown_sources() {
        let nodes: Vec<Address> = (1..11).map(Address).collect();
        let b = reduce_placement_query(&nodes, 5, 1e9);
        let p = b.resolve().unwrap();
        assert_eq!(p.vars.len(), 5);
        assert_eq!(p.flows.len(), 10);
        assert!(p
            .flows
            .iter()
            .step_by(2)
            .all(|f| f.src == Endpoint::Unknown));
    }

    #[test]
    fn map_query_couples_disk_and_net() {
        let holders: Vec<Address> = vec![Address(5), Address(6), Address(7)];
        let b = map_placement_query(Address(9), &holders, 128.0 * MB);
        let p = b.resolve().unwrap();
        assert_eq!(p.flows.len(), 2);
        assert_eq!(p.flows[0].src, Endpoint::Disk);
        assert!(![p.flows[1].src, p.flows[1].dst].contains(&Endpoint::Disk));
        let text = b.text();
        assert!(text.contains("disk -> X"), "{text}");
        assert!(text.contains("rate r(f2)"), "{text}");
    }

    #[test]
    fn read_query_round_trips_through_text() {
        let b = hdfs_read_query(Address(1), &[Address(2), Address(3), Address(4)], 256.0 * MB);
        let p1 = b.resolve().unwrap();
        let p2 = crate::validate::resolve(
            &parse_query(&b.text()).unwrap(),
            &crate::validate::MapResolver::new(),
        )
        .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn the_wire_text_resolves_to_what_the_builder_resolves_to() {
        let nodes: Vec<Address> = (2..9).map(Address).collect();
        // A setter called again replaces the earlier value: one entry per
        // kind, so the text and the problem cannot disagree.
        let mut twice = QueryBuilder::new();
        let x = twice.variable("x", nodes.iter().copied());
        let f1 = twice.flow("f1").from_disk().to_var(x).size(1.0).size(2.0);
        let f1 = f1.handle();
        twice
            .flow("f2")
            .from_var(x)
            .to_addr(Address(1))
            .rate(5.0)
            .size_of(f1)
            .rate_of(f1);
        let text = twice.text();
        assert!(text.contains("f1 disk -> x size 2\n"), "{text}");

        for b in [
            twice,
            hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB),
            reduce_placement_query(&nodes, 4, 64.0 * MB),
            map_placement_query(Address(1), &nodes[..3], 128.0 * MB),
            daisy_chain_query(&nodes, 4, 100.0 * MB),
        ] {
            let text = b.text();
            let reparsed = crate::validate::resolve(
                &parse_query(&text).unwrap_or_else(|e| panic!("{e}: {text}")),
                &crate::validate::MapResolver::new(),
            )
            .unwrap();
            assert_eq!(reparsed, b.resolve().unwrap(), "{text}");
        }
    }
}
