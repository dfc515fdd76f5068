//! Round-trip overhead of the TCP admission front-end.
//!
//! `net/echo_admission` measures one request/response round trip over a
//! warm loopback connection whose request is already in the result
//! cache — so the analysis cost is out of the picture and the number is
//! the front-end's own overhead: framing, the event loop, the
//! dispatcher hop, response rendering, and two loopback socket
//! traversals.
//!
//! `svc/render/{10,256,4096}` and `svc/canonicalize/{10,256,4096}` time
//! two per-request layers of the service on `fleet_set(n, 1)`: rendering
//! the set's `AnalyzeReport` (set echo included) with
//! `rbs_json::to_string`, and computing its `CanonicalTaskSet` cache key.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use rbs_bench::harness::Runner;
use rbs_core::{analyze, AnalysisLimits};
use rbs_model::CanonicalTaskSet;
use rbs_net::{NetConfig, Server};
use rbs_svc::{Service, ServiceConfig, WorkerPool};

/// The Table 1 style one-task set used as the echo payload.
const REQUEST: &str = concat!(
    "[{\"name\":\"w\",\"criticality\":\"Lo\",",
    "\"lo\":{\"period\":{\"num\":5,\"den\":1},",
    "\"deadline\":{\"num\":5,\"den\":1},",
    "\"wcet\":{\"num\":1,\"den\":1}},",
    "\"hi\":{\"Continue\":{\"period\":{\"num\":5,\"den\":1},",
    "\"deadline\":{\"num\":5,\"den\":1},",
    "\"wcet\":{\"num\":1,\"den\":1}}}}]\n"
);

fn main() {
    let runner = Runner::new("net");

    let service = Service::with_config(WorkerPool::new(2), ServiceConfig::default());
    let server = Server::bind("127.0.0.1:0", service, NetConfig::default(), |_| {}).expect("binds");
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut line = String::new();

    // Warm the cache (and the connection) with one full round trip.
    stream.write_all(REQUEST.as_bytes()).expect("sends");
    reader.read_line(&mut line).expect("receives");
    assert!(line.contains("\"report\":"), "{line}");

    runner.bench("net/echo_admission", || {
        stream.write_all(REQUEST.as_bytes()).expect("sends");
        line.clear();
        reader.read_line(&mut line).expect("receives");
        line.len()
    });

    drop(stream);
    drop(reader);
    server.shutdown().expect("drains");

    for n in [10, 256, 4096] {
        let set = rbs_bench::fleet_set(n, 1);
        runner.bench(&format!("svc/canonicalize/{n}"), || {
            CanonicalTaskSet::of(&set).content_hash()
        });
        let report = analyze(set, &AnalysisLimits::default()).expect("fleet sets analyze");
        runner.bench(&format!("svc/render/{n}"), || {
            rbs_json::to_string(&report).len()
        });
    }
    runner.finish();
}
