// Per-layer probes for traced runs. Each drives one layer's public
// functions on fixed inputs, with a span around every call. Every traced
// run, whatever its workload, takes the whole per-layer set from these
// probes, so a metric means the same on every workload (README,
// "Per-layer metrics").

#include <poll.h>

#include <array>
#include <variant>

#include "crypto/channel.h"
#include "crypto/gcm.h"
#include "layers.h"
#include "net/wire.h"
#include "obs/prof.h"
#include "runtime/real_env.h"
#include "timed/service.h"
#include "triad/messages.h"
#include "workloads.h"

namespace pb {
namespace {

using triad::Bytes;
using triad::NodeId;
namespace rt = triad::runtime;
namespace wire = triad::net::wire;
namespace proto = triad::proto;

constexpr int kCalls = 20000;

Bytes request_plaintext(std::uint64_t id) {
  proto::PeerTimeRequest request;
  request.request_id = id;
  return proto::encode(proto::Message{request});
}

void probe_crypto(const Options&, Result& result) {
  const triad::crypto::ClusterKeyring keyring(Bytes(32, 0x42));
  triad::crypto::SecureChannel client(100, keyring);
  triad::crypto::SecureChannel node(1, keyring);
  const Bytes plaintext = request_plaintext(1);
  bool ok = true;
  for (int i = 0; i < 100; ++i) {  // warm: both direction ciphers cached
    ok &= node.open(client.seal(1, plaintext)).has_value();
  }
  const AllocCounts before = alloc_counts();
  constexpr int kRoundTrips = 1000;
  for (int i = 0; i < kRoundTrips; ++i) {
    ok &= node.open(client.seal(1, plaintext)).has_value();
  }
  const AllocCounts after = alloc_counts();
  result.add("crypto.channel_allocs_per_roundtrip",
             static_cast<double>(after.allocs - before.allocs) / kRoundTrips,
             "count");
  for (int i = 0; i < kCalls; ++i) {
    Bytes sealed;
    {
      const SpanScope span("crypto.channel_seal", static_cast<std::uint64_t>(i));
      sealed = client.seal(1, plaintext);
    }
    const SpanScope span("crypto.channel_open", static_cast<std::uint64_t>(i));
    ok &= node.open(sealed).has_value();
  }
  result.add("crypto.channel_seal_ns", mean_self_ns("crypto.channel_seal"), "ns");
  result.add("crypto.channel_open_ns", mean_self_ns("crypto.channel_open"), "ns");

  const triad::crypto::Aes256Gcm gcm(Bytes(32, 0x17));
  const Bytes block(32, 0x5a);
  const Bytes aad(16, 0x01);
  triad::crypto::GcmIv iv{};
  for (int i = 0; i < kCalls; ++i) {
    iv[0] = static_cast<std::uint8_t>(i);
    const SpanScope span("crypto.gcm_seal", static_cast<std::uint64_t>(i));
    const auto sealed = gcm.seal(iv, block, aad);
    ok &= sealed.ciphertext.size() == block.size();
  }
  result.add("crypto.gcm_seal_ns", mean_self_ns("crypto.gcm_seal"), "ns");

  // Reject path: frames from senders never seen before with a bad tag
  // (the sender field is rewritten after sealing).
  triad::crypto::SecureChannel victim(1, keyring);
  const Bytes genuine = client.seal(1, plaintext);
  constexpr int kForged = 4096;
  const AllocCounts forged_before = alloc_counts();
  for (int i = 0; i < kForged; ++i) {
    Bytes frame = genuine;
    const NodeId sender = 0x50000000u + static_cast<NodeId>(i);
    for (int b = 0; b < 4; ++b) {
      frame[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(sender >> (8 * b));
    }
    triad::crypto::OpenError error{};
    const SpanScope span("crypto.channel_open_forged",
                         static_cast<std::uint64_t>(i));
    ok &= !victim.open(frame, &error).has_value() &&
          error == triad::crypto::OpenError::kAuthFailed;
  }
  const AllocCounts forged_after = alloc_counts();
  result.add("crypto.channel_open_forged_ns",
             mean_self_ns("crypto.channel_open_forged"), "ns");
  // The frame copies are freed inside the loop, so the growth left is
  // the channel's per-sender state.
  result.add("crypto.channel_bytes_per_forged_sender",
             static_cast<double>(forged_after.live_bytes -
                                 forged_before.live_bytes) /
                 kForged,
             "bytes");
  if (!ok) result.check("crypto probe: a genuine frame failed or a forged one opened");
}

void probe_codec(const Options&, Result& result) {
  proto::PeerTimeResponse response;
  response.request_id = 42;
  response.timestamp = 1'000'000'007;
  response.error_bound = 25'000;
  const Bytes payload(64, 0x33);
  bool ok = true;
  for (int i = 0; i < kCalls; ++i) {
    const auto op = static_cast<std::uint64_t>(i);
    Bytes encoded;
    {
      const SpanScope span("triad.proto_encode", op);
      encoded = proto::encode(proto::Message{response});
    }
    {
      const SpanScope span("triad.proto_decode", op);
      const auto decoded = proto::decode(encoded);
      ok &= decoded.has_value() &&
            std::get_if<proto::PeerTimeResponse>(&*decoded) != nullptr;
    }
    Bytes frame;
    {
      const SpanScope span("net.wire_encode", op);
      frame = wire::encode_frame(1, 100, payload);
    }
    const SpanScope span("net.wire_decode", op);
    ok &= wire::decode_frame(frame).has_value();
  }
  result.add("triad.proto_encode_ns", mean_self_ns("triad.proto_encode"), "ns");
  result.add("triad.proto_decode_ns", mean_self_ns("triad.proto_decode"), "ns");
  result.add("net.wire_encode_ns", mean_self_ns("net.wire_encode"), "ns");
  result.add("net.wire_decode_ns", mean_self_ns("net.wire_decode"), "ns");
  if (!ok) result.check("codec probe: a round trip failed");
}

void probe_runtime(const Options&, Result& result) {
  rt::UdpSocket sender = rt::UdpSocket::bind(rt::kLoopbackAny);
  rt::UdpSocket receiver = rt::UdpSocket::bind(rt::kLoopbackAny);
  if (!sender.valid() || !receiver.valid()) {
    result.check("runtime probe: cannot bind loopback sockets");
    return;
  }
  const std::vector<Bytes> burst(rt::kRecvBatch, Bytes(96, 0x44));
  std::array<rt::RecvView, rt::kRecvBatch> views;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t calls = 0;
  for (int round = 0; round < 2000; ++round) {
    {
      const SpanScope span("runtime.send_batch");
      sent += sender.send_batch(receiver.local_addr(), burst, burst.size());
    }
    std::size_t got = 0;
    while (got < burst.size()) {
      pollfd pfd{receiver.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) break;
      const SpanScope span("runtime.recv_batch");
      const std::size_t n = receiver.recv_batch(views);
      got += n;
      calls += n > 0 ? 1 : 0;
    }
    received += got;
  }
  result.add("runtime.send_ns_per_datagram",
             self_ns_per("runtime.send_batch", sent), "ns");
  result.add("runtime.recv_ns_per_datagram",
             self_ns_per("runtime.recv_batch", received), "ns");
  result.add("runtime.datagrams_per_recv_batch",
             static_cast<double>(received) /
                 static_cast<double>(std::max<std::uint64_t>(1, calls)),
             "count");
  if (received != sent) result.check("runtime probe: loopback lost datagrams");
}

/// One in-process ServeWorker answering bursts of sealed requests, with
/// the program's own timed/serve_batch profiler scope switched on.
void probe_timed(const Options&, Result& result) {
  const triad::crypto::ClusterKeyring keyring(Bytes(32, 0x42));
  triad::timed::SnapshotBoard board;
  triad::timed::ClockSnapshot snapshot;
  snapshot.time = 1'000'000;
  snapshot.mono_ns = rt::MonotonicTimer::now_ns();
  snapshot.error_bound = 50'000;
  snapshot.available = true;
  board.publish(snapshot);
  triad::obs::Profiler& profiler = triad::obs::Profiler::instance();
  profiler.reset();
  profiler.set_enabled(true);
  triad::timed::ServeWorker worker(rt::kLoopbackAny, 1, keyring, board);
  rt::UdpSocket client = rt::UdpSocket::bind(rt::kLoopbackAny);
  if (!worker.valid() || !client.valid()) {
    result.check("timed probe: cannot bind loopback sockets");
    return;
  }
  worker.start();
  triad::crypto::SecureChannel channel(100, keyring);
  std::array<rt::RecvView, rt::kRecvBatch> views;
  std::uint64_t answered = 0;
  std::vector<Bytes> burst;
  for (int round = 0; round < 1000; ++round) {
    burst.clear();
    for (std::size_t i = 0; i < rt::kRecvBatch; ++i) {
      burst.push_back(wire::encode_frame(
          100, 1, channel.seal(1, request_plaintext(round * 64 + i + 1))));
    }
    client.send_batch(worker.local_addr(), burst, burst.size());
    std::size_t got = 0;
    while (got < burst.size()) {
      pollfd pfd{client.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) break;
      got += client.recv_batch(views);
    }
    answered += got;
  }
  worker.stop();
  worker.join();
  profiler.set_enabled(false);
  const triad::obs::ProfTree tree = profiler.merge();
  const std::uint64_t requests =
      worker.stats().requests.load(std::memory_order_relaxed);
  for (const auto& node : tree.root.children) {
    if (node.name == "timed/serve_batch" && requests > 0) {
      result.add("timed.serve_batch_ns_per_request",
                 static_cast<double>(node.incl_ns) /
                     static_cast<double>(requests),
                 "ns");
    }
  }
  if (answered != requests) result.check("timed probe: requests went unanswered");
}

struct Probe {
  std::vector<std::string> metrics;
  void (*run)(const Options&, Result&);
};

const std::vector<Probe>& probes() {
  static const std::vector<Probe> kProbes = {
      {{"crypto.channel_seal_ns", "crypto.channel_open_ns", "crypto.gcm_seal_ns",
        "crypto.channel_allocs_per_roundtrip", "crypto.channel_open_forged_ns",
        "crypto.channel_bytes_per_forged_sender"},
       probe_crypto},
      {{"net.wire_encode_ns", "net.wire_decode_ns", "triad.proto_encode_ns",
        "triad.proto_decode_ns"},
       probe_codec},
      {{"runtime.send_ns_per_datagram", "runtime.recv_ns_per_datagram",
        "runtime.datagrams_per_recv_batch"},
       probe_runtime},
      {{"timed.serve_batch_ns_per_request"}, probe_timed},
      {{"sim.events_per_op", "sim.ns_per_event", "net.packets_per_op",
        "triad.adoptions_per_op", "triad.ta_requests_per_op",
        "exp.scenario_build_ms"},
       probe_sim_layers},
      {{"campaign.execute_run_ms", "campaign.queue_ms", "campaign.worker_busy",
        "campaign.aggregate_ms", "obs.export_jsonl_ms",
        "obs.export_prometheus_ms", "obs.detector_ns_per_event"},
       probe_campaign_layers},
  };
  return kProbes;
}

}  // namespace

void run_layer_probes(const Options& options, Result& result) {
  for (const Probe& probe : probes()) {
    Result measured;
    probe.run(options, measured);
    for (const std::string& error : measured.errors) result.check(error);
    for (const std::string& name : probe.metrics) {
      if (!measured.has(name)) result.check("per-layer metric " + name + " missing");
    }
    result.metrics.insert(result.metrics.end(), measured.metrics.begin(),
                          measured.metrics.end());
  }
}

}  // namespace pb
