// serve_honest / serve_forged.
//
// A TA and one node run as triad_timed daemons (the node with one serve
// worker). This process is the load generator: one thread keeping
// kClients sealed PeerTimeRequests outstanding, one per client id (a
// closed loop of kClients callers), on one UDP socket. With the node's
// worker and node threads that is three busy threads on a 4-vCPU box.
//
// The op is one request answered by an authenticated, untainted
// PeerTimeResponse; its latency runs from send to authenticated receipt.
// On serve_forged kForgedPerSecond frames a second are forged, paced
// by the clock and sent with the request batches: each has a sender id
// never used before and a bad GCM tag. Forged frames are background
// load, not ops; pacing them by time rather than per request keeps the
// number of forged senders, and so the node's memory, the same in every
// run of a given length.
//
// Every client id belongs to one SecureChannel for the daemons' whole
// life, and the readiness probe has an id of its own: a second channel
// under a used id would restart its counter and be refused as a replay.
//
// The clock check compares every pair of answers. It fails on runs where
// the node's calibration errs by more than the 500 ppm its error bound
// allows for (CHANGES.md, FOUND), so these two workloads are runnable but
// left out of BENCHMARK.json.

#include <poll.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <memory>
#include <optional>
#include <variant>

#include "checks.h"
#include "crypto/channel.h"
#include "net/wire.h"
#include "runtime/real_env.h"
#include "timed/service.h"
#include "triad/messages.h"
#include "util/rng.h"
#include "workloads.h"

namespace pb {
namespace {

using triad::Bytes;
using triad::NodeId;
namespace rt = triad::runtime;
namespace wire = triad::net::wire;
namespace proto = triad::proto;

constexpr NodeId kTaId = 9;
constexpr NodeId kNodeId = 1;
constexpr NodeId kProbeId = 900;
constexpr std::size_t kClients = 32;
constexpr std::uint64_t kForgedPerSecond = 1500;
constexpr std::size_t kMaxErrors = 5;
// Sub-windows of the measured window: over 300 000 answers each.
constexpr std::uint64_t kSubWindowNs = 3'000'000'000;

struct Client {
  NodeId id = 0;
  std::unique_ptr<triad::crypto::SecureChannel> channel;
  std::uint64_t request_id = 0;  // outstanding request
  std::uint64_t sent_ns = 0;
  bool waiting = false;
};

/// Keeps the first kMaxErrors failures, each once: a broken pair of
/// answers stays broken, and every later answer would report it again.
void note(Result& result, const std::string& error) {
  if (!error.empty() && result.errors.size() < kMaxErrors &&
      (result.errors.empty() || result.errors.back() != error)) {
    result.errors.push_back(error);
  }
}

}  // namespace

Result run_serve(const Options& options, bool forged) {
  Result result;
  triad::Rng rng(options.seed);
  const std::string tag = forged ? "serve_forged" : "serve_honest";
  const std::string ta_log = options.out_dir + "/" + tag + "_ta.log";
  const std::string node_log = options.out_dir + "/" + tag + "_node.log";
  const std::string node_metrics = options.out_dir + "/" + tag + "_node.prom";
  const std::string daemon = options.bin_dir + "/triad_timed";
  const std::string seed = std::to_string(options.seed);

  // --- set-up: launch until the node serves its first timestamp -------
  const std::uint64_t launch_ns = now_ns();
  Child ta({daemon, "--role", "ta", "--id", std::to_string(kTaId), "--listen",
            "127.0.0.1:0", "--seed", seed},
           ta_log);
  const std::string ta_addr = wait_for_token(ta_log, "protocol=", 10000);
  if (!ta.running() || ta_addr.empty()) {
    result.errors.push_back("TA daemon did not start (see " + ta_log + ")");
    return result;
  }
  const std::vector<std::string> node_argv = {
      daemon, "--role", "node", "--id", std::to_string(kNodeId), "--listen",
      "127.0.0.1:0", "--serve", "127.0.0.1:0", "--workers", "1", "--peer",
      std::to_string(kTaId) + "=" + ta_addr, "--ta-id", std::to_string(kTaId),
      "--seed", seed, "--calib-pairs", "2", "--calib-wait-high", "0.05",
      "--metrics", node_metrics};
  Child node(node_argv, node_log);
  const std::string serve_text = wait_for_token(node_log, "serve=", 10000);
  const auto serve = rt::parse_sockaddr(serve_text);
  if (!node.running() || !serve.has_value()) {
    result.errors.push_back("node daemon did not start (see " + node_log + ")");
    return result;
  }
  const triad::crypto::ClusterKeyring keyring(Bytes(32, 0x42));
  std::uint64_t probe_requests = 0;
  {
    triad::timed::BlockingProbe probe(kProbeId, kNodeId, *serve, keyring);
    bool up = false;
    while (!up && now_ns() - launch_ns < 30'000'000'000ULL) {
      ++probe_requests;
      up = probe.request(triad::milliseconds(100)).has_value();
    }
    if (!up) {
      result.errors.push_back("node never served an untainted timestamp");
      return result;
    }
  }
  const double setup_s = static_cast<double>(now_ns() - launch_ns) / 1e9;

  // --- inputs from the seed: client ids, request ids, forged ids -------
  const NodeId client_base =
      static_cast<NodeId>(1000 + rng.next_below(1000) * kClients);
  NodeId next_forged = static_cast<NodeId>(0x40000000u + rng.next_below(1u << 20));
  std::vector<Client> clients(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients[i].id = client_base + static_cast<NodeId>(i);
    clients[i].channel =
        std::make_unique<triad::crypto::SecureChannel>(clients[i].id, keyring);
    clients[i].request_id = rng.next_below(1ULL << 40);
  }
  // Template for forged frames: a well-formed sealed request whose
  // sender field is rewritten, so the tag no longer authenticates.
  Bytes forged_payload;
  {
    triad::crypto::SecureChannel sealer(client_base, keyring);
    forged_payload = sealer.seal(kNodeId, proto::encode(proto::Message{
                                              proto::PeerTimeRequest{}}));
  }

  rt::UdpSocket socket = rt::UdpSocket::bind(rt::kLoopbackAny);
  std::optional<rt::UdpSocket> forge_socket;
  if (forged) forge_socket.emplace(rt::UdpSocket::bind(rt::kLoopbackAny));
  if (!socket.valid() || (forged && !forge_socket->valid())) {
    result.errors.push_back("cannot bind load-generator sockets");
    return result;
  }

  std::vector<Bytes> requests;
  std::vector<std::size_t> request_clients;
  std::vector<Bytes> forgeries;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t forged_sent = 0;

  const auto queue_request = [&](std::size_t index) {
    Client& client = clients[index];
    const SpanScope span("serve.request", sent + 1);
    proto::PeerTimeRequest request;
    request.request_id = ++client.request_id;
    Bytes plaintext;
    {
      const SpanScope s("triad.proto_encode", sent + 1);
      plaintext = proto::encode(proto::Message{request});
    }
    Bytes sealed;
    {
      const SpanScope s("crypto.channel_seal", sent + 1);
      sealed = client.channel->seal(kNodeId, plaintext);
    }
    {
      const SpanScope s("net.wire_encode", sent + 1);
      requests.push_back(wire::encode_frame(client.id, kNodeId, sealed));
    }
    request_clients.push_back(index);
    ++sent;
  };
  std::uint64_t forge_start_ns = 0;
  std::uint64_t forged_queued = 0;
  const auto queue_forgeries = [&](std::uint64_t now) {
    const std::uint64_t due = (now - forge_start_ns) * kForgedPerSecond / 1'000'000'000ULL;
    for (; forged_queued < due; ++forged_queued) {
      Bytes payload = forged_payload;
      const NodeId id = next_forged++;
      for (int b = 0; b < 4; ++b) {
        payload[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(id >> (8 * b));
      }
      forgeries.push_back(wire::encode_frame(id, kNodeId, payload));
    }
  };
  const auto flush = [&](Result& r) {
    if (!requests.empty()) {
      const std::uint64_t at = now_ns();
      for (const std::size_t index : request_clients) {
        clients[index].sent_ns = at;
        clients[index].waiting = true;
      }
      std::size_t pushed = 0;
      {
        const SpanScope s("runtime.send_batch");
        pushed = socket.send_batch(*serve, requests, requests.size());
      }
      if (pushed != requests.size()) {
        note(r, "sendmmsg took " + std::to_string(pushed) + " of " +
                    std::to_string(requests.size()) + " requests");
      }
      requests.clear();
      request_clients.clear();
    }
    if (!forgeries.empty()) {
      forged_sent += forge_socket->send_batch(*serve, forgeries, forgeries.size());
      forgeries.clear();
    }
  };

  ServeClockChecker clock;
  std::optional<WindowStats> window;
  std::array<rt::RecvView, rt::kRecvBatch> views;

  // Receives one batch and checks every answer; returns the clients
  // answered (their next requests are the caller's business).
  std::vector<std::size_t> ready;
  const auto receive = [&](std::uint64_t window_end_ns, int wait_ms) {
    ready.clear();
    pollfd pfd{socket.fd(), POLLIN, 0};
    {
      const SpanScope s("runtime.wait");
      if (::poll(&pfd, 1, wait_ms) <= 0) return;
    }
    std::size_t n = 0;
    {
      const SpanScope s("runtime.recv_batch");
      n = socket.recv_batch(views);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const SpanScope span("serve.response", answered + 1);
      std::optional<wire::Frame> frame;
      {
        const SpanScope s("net.wire_decode", answered + 1);
        frame = wire::decode_frame(views[i].data);
      }
      if (!frame.has_value() || frame->dst < client_base ||
          frame->dst >= client_base + kClients) {
        note(result, "undecodable or misaddressed datagram");
        continue;
      }
      Client& client = clients[frame->dst - client_base];
      if (!client.waiting) {
        note(result, "answer to client " + std::to_string(client.id) +
                         " with nothing outstanding");
        continue;
      }
      ResponseView view;
      std::optional<triad::crypto::SecureChannel::Opened> opened;
      {
        const SpanScope s("crypto.channel_open", answered + 1);
        opened = client.channel->open(frame->payload);
      }
      const proto::PeerTimeResponse* response = nullptr;
      std::optional<proto::Message> message;
      if (opened.has_value()) {
        view.authenticated = true;
        view.sender = opened->sender;
        const SpanScope s("triad.proto_decode", answered + 1);
        message = proto::decode(opened->plaintext);
        if (message.has_value()) {
          response = std::get_if<proto::PeerTimeResponse>(&*message);
        }
      }
      if (response != nullptr) {
        view.is_time_response = true;
        view.request_id = response->request_id;
        view.tainted = response->tainted;
      }
      const std::uint64_t recv_ns = now_ns();
      client.waiting = false;
      ++answered;
      const std::string error = check_response(view, kNodeId, client.request_id);
      if (!error.empty()) {
        ++result.failed;
        note(result, error);
      } else {
        note(result, clock.add({response->timestamp, response->error_bound,
                                client.sent_ns, recv_ns}));
        if (recv_ns <= window_end_ns) window->add(recv_ns, recv_ns - client.sent_ns);
      }
      ready.push_back(frame->dst - client_base);
    }
  };

  // --- measured window -------------------------------------------------
  const std::uint64_t window_ns =
      static_cast<std::uint64_t>(options.seconds * 1e9);
  const std::uint64_t window_start = now_ns();
  const std::uint64_t window_end = window_start + window_ns;
  forge_start_ns = window_start;
  window.emplace(window_start, kSubWindowNs, [&] {
    return pid_cpu_ns(node.pid()) + pid_cpu_ns(ta.pid());
  });
  for (std::size_t i = 0; i < kClients; ++i) queue_request(i);
  flush(result);
  std::uint64_t last_progress = now_ns();
  while (true) {
    const std::uint64_t now = now_ns();
    if (now >= window_end) break;
    receive(window_end, 50);
    if (!ready.empty()) {
      last_progress = now_ns();
      if (last_progress < window_end) {
        for (const std::size_t index : ready) queue_request(index);
        if (forged) queue_forgeries(last_progress);
        flush(result);
      }
    } else if (now_ns() - last_progress > 2'000'000'000ULL) {
      note(result, "no answer for 2 s");
      break;
    }
  }
  window->finish(window_end);

  // Drain: every outstanding request is still an op and must be answered.
  const std::uint64_t drain_deadline = now_ns() + 2'000'000'000ULL;
  while (now_ns() < drain_deadline &&
         std::any_of(clients.begin(), clients.end(),
                     [](const Client& c) { return c.waiting; })) {
    receive(window_end, 20);
  }
  const auto unanswered = static_cast<std::uint64_t>(std::count_if(
      clients.begin(), clients.end(), [](const Client& c) { return c.waiting; }));
  std::uint64_t forged_replies = 0;
  if (forged) {
    forged_replies = forge_socket->recv_batch(views);
  }
  const double rss_mb = peak_rss_mb(node.pid());

  const int node_exit = node.terminate();
  const int ta_exit = ta.terminate();
  if (node_exit != 0) note(result, "node daemon exited " + std::to_string(node_exit));
  if (ta_exit != 0) note(result, "TA daemon exited " + std::to_string(ta_exit));
  const std::string dump = read_file(node_metrics);
  note(result, check_served_count(answered, probe_requests,
                                   prom_sum(dump, "triad_timed_responses_total")));
  note(result, check_forged(forged ? forged_sent : 0,
                            prom_sum(dump, "triad_timed_bad_frames_total"),
                            forged_replies));
  if (unanswered != 0) {
    note(result, std::to_string(unanswered) + " requests never answered");
  }

  result.attempted = sent;
  result.failed += unanswered;
  std::cerr << "perfbench: served time drifted " << clock.drift_ppm()
            << " ppm against the local clock over the run\n";
  result.add("setup_s", setup_s, "s");
  window->report(result);
  result.add("peak_rss_mb", rss_mb, "MiB");
  return result;
}

}  // namespace pb
