//! Pins the reservation overlay to its reused buffer: a warm answer whose
//! reservation mask is non-empty allocates exactly what the same answer
//! with an empty mask does — no `World` is built for the penalties. (The
//! overlay used to clone the snapshot world per answer: three vectors.)
//! Both go through `EvalCore::answer_snapshot`, the answer path every
//! serving-plane worker runs, here behind `CloudTalkServer`.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counters.

use cloudtalk::server::{CloudTalkServer, ServerConfig};
use cloudtalk::status::TableStatusSource;
use cloudtalk::transport::TransportConfig;
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::Address;
use desim::SimTime;
use estimator::HostState;
use testkit::allocs_of;

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

#[test]
fn a_warm_answer_with_a_non_empty_mask_allocates_no_world() {
    let nodes: Vec<Address> = (2..22).map(Address).collect();
    let problem = hdfs_write_query(Address(1), &nodes, 3, 1e6)
        .resolve()
        .unwrap();
    let mut source = TableStatusSource::new();
    for i in 1..=21 {
        source.set(
            Address(i),
            HostState::gbps_idle().with_up_load(0.05 * f64::from(i % 5)),
        );
    }
    let cfg = ServerConfig {
        transport: TransportConfig::local(),
        ..ServerConfig::default()
    };
    let now = SimTime::ZERO;
    // `held` records its first answer, so its later ones see those hosts
    // held; `free` never records, so its mask stays empty.
    let (mut held, mut free) = (CloudTalkServer::new(cfg.clone()), CloudTalkServer::new(cfg));
    let first = held
        .answer_problem_with(&problem, &mut source, now, true)
        .unwrap();
    let mut allocs = Vec::new();
    for server in [&mut held, &mut free] {
        let warm = server
            .answer_problem_with(&problem, &mut source, now, false)
            .unwrap();
        let (n, _, again) =
            allocs_of(|| server.answer_problem_with(&problem, &mut source, now, false));
        assert_eq!(again.unwrap(), warm);
        allocs.push((n, warm.binding));
    }
    let ((masked, moved), (unmasked, _)) = (&allocs[0], &allocs[1]);
    assert_ne!(
        *moved, first.binding,
        "the held hosts are avoided: the mask is non-empty"
    );
    assert_eq!(masked, unmasked, "allocations with a mask vs without");
}
