// Tests for the strategy-serving subsystem (src/serve): the hardened JSON
// layer, the request/response protocol, the verified result cache, seeded
// fault injection, and the ServeCore robustness invariants (deadlines,
// admission control, watchdog, cross-request determinism). ServeCore is
// driven directly through handle_line — no sockets — so every scenario
// here is an in-process unit test.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "comm/comm_model.h"
#include "core/dp_solver.h"
#include "cost/machine.h"
#include "hetero/hetero.h"
#include "io/strategy_io.h"
#include "mini_json.h"
#include "models/models.h"
#include "serve/inject.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/server.h"

namespace pase::serve {
namespace {

// ---------------------------------------------------------------------------
// JSON layer

TEST(ServeJson, WriterIsCanonicalAndCrossParses) {
  Json obj = Json::make_object();
  obj.object["zeta"] = Json::make_number(1.5);
  obj.object["alpha"] = Json::make_string("a\"b\nc");
  obj.object["count"] = Json::make_number(42);
  obj.object["flag"] = Json::make_bool(true);
  Json arr = Json::make_array();
  arr.array.push_back(Json::make_number(1));
  arr.array.push_back(Json::make_null());
  obj.object["list"] = std::move(arr);

  const std::string text = write_json(obj);
  // Keys sorted, no whitespace, integral doubles rendered as integers.
  EXPECT_EQ(text,
            "{\"alpha\":\"a\\\"b\\nc\",\"count\":42,\"flag\":true,"
            "\"list\":[1,null],\"zeta\":1.5}");

  // Round-trips through our own parser...
  const auto own = parse_json(text);
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(write_json(*own), text);
  // ...and through the independent test-side reader.
  const auto mini = pase::testing::JsonParser::parse(text);
  ASSERT_TRUE(mini.has_value());
  EXPECT_EQ(mini->get("alpha")->string, "a\"b\nc");
  EXPECT_EQ(mini->get("count")->number, 42.0);
  EXPECT_EQ(mini->get("list")->array.size(), 2u);
}

TEST(ServeJson, ParserRejectsHostileInput) {
  std::string error;
  // Trailing garbage.
  EXPECT_FALSE(parse_json("{} {}", &error).has_value());
  // Unterminated string.
  EXPECT_FALSE(parse_json("\"abc", &error).has_value());
  // Depth bomb: 100 nested arrays exceeds the 64-level cap.
  std::string bomb(100, '[');
  bomb += std::string(100, ']');
  EXPECT_FALSE(parse_json(bomb, &error).has_value());
  EXPECT_NE(error.find("nest"), std::string::npos);
  // Non-finite numbers and bare words.
  EXPECT_FALSE(parse_json("nan", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":inf}", &error).has_value());
  // Errors carry a byte offset.
  EXPECT_FALSE(parse_json("{\"a\": }", &error).has_value());
  EXPECT_NE(error.find("byte"), std::string::npos);
  // 64 levels exactly is accepted.
  std::string ok(64, '[');
  ok += std::string(64, ']');
  EXPECT_TRUE(parse_json(ok).has_value());
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocol, ParsesSolveWithDefaults) {
  const auto r = parse_request("{\"op\":\"solve\",\"zoo\":\"alexnet\"}");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.request.op, ServeRequest::Op::kSolve);
  EXPECT_EQ(r.request.zoo, "alexnet");
  EXPECT_EQ(r.request.machine, "1080ti");
  EXPECT_EQ(r.request.devices, 8);
  EXPECT_EQ(r.request.deadline_ms, 0.0);
  EXPECT_EQ(r.request.beam_width, 256);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_FALSE(parse_request("not json").ok);
  EXPECT_FALSE(parse_request("[1,2]").ok);
  EXPECT_FALSE(parse_request("{\"zoo\":\"alexnet\"}").ok);  // missing op
  EXPECT_FALSE(parse_request("{\"op\":\"dance\"}").ok);     // unknown op
  // A solve needs exactly one model source.
  EXPECT_FALSE(parse_request("{\"op\":\"solve\"}").ok);
  EXPECT_FALSE(
      parse_request(
          "{\"op\":\"solve\",\"zoo\":\"a\",\"model\":\"pase-model v1\"}")
          .ok);
  // Range-checked numerics.
  EXPECT_FALSE(
      parse_request("{\"op\":\"solve\",\"zoo\":\"a\",\"devices\":0}").ok);
  EXPECT_FALSE(
      parse_request("{\"op\":\"solve\",\"zoo\":\"a\",\"devices\":2.5}").ok);
  EXPECT_FALSE(
      parse_request("{\"op\":\"solve\",\"zoo\":\"a\",\"deadline_ms\":-1}")
          .ok);
}

TEST(ServeProtocol, InlineMachineSpecIsCanonicalizedAndValidated) {
  // Two spellings of one spec — different key order and whitespace — must
  // canonicalize to the same machine_spec_json (the cache/dedupe key).
  const auto a = parse_request(
      "{\"op\":\"solve\",\"zoo\":\"mlp\",\"machine_spec\":"
      "{\"devices\":4,\"peak_flops\":11.3e12,\"link_bandwidth\":7e9}}");
  const auto b = parse_request(
      "{\"op\":\"solve\",\"zoo\":\"mlp\",  \"machine_spec\": "
      "{\"link_bandwidth\":7e9, \"peak_flops\":11.3e12, \"devices\":4}}");
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_FALSE(a.request.machine_spec_json.empty());
  EXPECT_EQ(a.request.machine_spec_json, b.request.machine_spec_json);
  // "devices" defaults to the spec's count.
  EXPECT_EQ(a.request.devices, 4);

  // Exclusive with "machine".
  const auto both = parse_request(
      "{\"op\":\"solve\",\"zoo\":\"mlp\",\"machine\":\"2080ti\","
      "\"machine_spec\":{\"devices\":4,\"peak_flops\":1e12,"
      "\"link_bandwidth\":1e9}}");
  EXPECT_FALSE(both.ok);
  EXPECT_NE(both.error.find("at most one"), std::string::npos);

  // An explicit "devices" must match the spec's count.
  const auto mismatch = parse_request(
      "{\"op\":\"solve\",\"zoo\":\"mlp\",\"devices\":8,\"machine_spec\":"
      "{\"devices\":4,\"peak_flops\":1e12,\"link_bandwidth\":1e9}}");
  EXPECT_FALSE(mismatch.ok);
  EXPECT_NE(mismatch.error.find("does not match"), std::string::npos);

  // Spec validation errors surface as the parse error.
  const auto bad = parse_request(
      "{\"op\":\"solve\",\"zoo\":\"mlp\",\"machine_spec\":"
      "{\"devices\":4,\"peak_flops\":1e12}}");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("no link given"), std::string::npos);
  EXPECT_FALSE(
      parse_request("{\"op\":\"solve\",\"zoo\":\"mlp\",\"machine_spec\":7}")
          .ok);
}

TEST(ServeProtocol, ResponseLineIsCanonical) {
  ServeResponse resp;
  resp.code = ResponseCode::kShed;
  resp.id = "q1";
  resp.reason = "queue at capacity";
  const std::string line = resp.to_line();
  EXPECT_EQ(line,
            "{\"code\":\"shed\",\"id\":\"q1\",\"reason\":\"queue at "
            "capacity\"}");
  // Strategy responses carry cost; reason-free ok responses omit reason.
  ServeResponse ok;
  ok.code = ResponseCode::kOk;
  ok.strategy = "pase-strategy v1\n";
  ok.cost = 2.0;
  const auto parsed = parse_json(ok.to_line());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_string("code"), "ok");
  EXPECT_EQ(parsed->get_number("cost"), 2.0);
  EXPECT_FALSE(parsed->get("reason"));
}

// ---------------------------------------------------------------------------
// Fault-injection spec

TEST(ServeInject, ParseAndRoundTrip) {
  const auto r =
      parse_inject_spec("slow=0.3:0.05,stall=0.05:2,poison=0.2");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.spec.slow_rate, 0.3);
  EXPECT_EQ(r.spec.slow_seconds, 0.05);
  EXPECT_EQ(r.spec.stall_rate, 0.05);
  EXPECT_EQ(r.spec.stall_seconds, 2.0);
  EXPECT_EQ(r.spec.poison_rate, 0.2);
  EXPECT_EQ(r.spec.to_string(), "slow=0.3:0.05,stall=0.05:2,poison=0.2");

  EXPECT_FALSE(parse_inject_spec("slow=0.3").ok);      // missing seconds
  EXPECT_FALSE(parse_inject_spec("poison=1.5").ok);    // rate out of range
  EXPECT_FALSE(parse_inject_spec("flood=0.1").ok);     // unknown clause
  EXPECT_FALSE(parse_inject_spec("slow").ok);          // no '='
  EXPECT_TRUE(parse_inject_spec("").ok);               // empty = no faults
}

TEST(ServeInject, DrawsAreDeterministicPerSeed) {
  InjectSpec spec;
  spec.slow_rate = 0.5;
  spec.slow_seconds = 0.1;
  spec.stall_rate = 0.2;
  spec.stall_seconds = 1.0;
  spec.poison_rate = 0.3;
  for (u64 k = 0; k < 64; ++k) {
    const InjectDraw a = draw_injections(spec, 7, k);
    const InjectDraw b = draw_injections(spec, 7, k);
    EXPECT_EQ(a.slow, b.slow);
    EXPECT_EQ(a.stall, b.stall);
    EXPECT_EQ(a.poison, b.poison);
  }
  // Extreme rates are exact, and a zero spec never draws.
  InjectSpec always;
  always.slow_rate = 1.0;
  always.slow_seconds = 0.1;
  for (u64 k = 0; k < 16; ++k) {
    EXPECT_TRUE(draw_injections(always, 1, k).slow);
    EXPECT_FALSE(draw_injections(always, 1, k).stall);
    const InjectDraw none = draw_injections(InjectSpec{}, 1, k);
    EXPECT_FALSE(none.slow || none.stall || none.poison);
  }
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ServeResultCache, GraphSignatureIgnoresNamesOnly) {
  const Graph a = models::mlp(32, {64, 32});
  const Graph b = models::mlp(32, {64, 32});
  EXPECT_EQ(graph_signature(a), graph_signature(b));
  // A different shape changes the signature...
  const Graph c = models::mlp(32, {64, 16});
  EXPECT_NE(graph_signature(a), graph_signature(c));
  // ...and so does a different batch.
  const Graph d = models::mlp(16, {64, 32});
  EXPECT_NE(graph_signature(a), graph_signature(d));
}

TEST(ServeResultCache, LruEvictionAndCorruption) {
  ResultCache cache(2);
  ResultCache::Entry e;
  e.status = DpStatus::kOk;
  e.best_cost = 1.0;
  e.check_cost = 1.0;
  e.strategy.push_back(Config{});
  cache.store(1, e);
  cache.store(2, e);
  ResultCache::Entry out;
  ASSERT_TRUE(cache.lookup(1, &out));  // touch 1: now MRU
  cache.store(3, e);                   // evicts 2 (LRU)
  EXPECT_FALSE(cache.lookup(2, &out));
  EXPECT_TRUE(cache.lookup(1, &out));
  EXPECT_TRUE(cache.lookup(3, &out));
  EXPECT_EQ(cache.size(), 2);

  // corrupt() flips check_cost bits but leaves it finite — the signal
  // verify-on-hit trips on.
  cache.corrupt(3);
  ASSERT_TRUE(cache.lookup(3, &out));
  EXPECT_NE(out.check_cost, e.check_cost);
  EXPECT_TRUE(std::isfinite(out.check_cost));

  cache.erase(3);
  EXPECT_FALSE(cache.lookup(3, &out));
}

TEST(ServeResultCache, CacheabilityFollowsTripCause) {
  using TC = DpResult::TripCause;
  EXPECT_TRUE(ResultCache::cacheable(DpStatus::kOk, TC::kNone));
  EXPECT_TRUE(ResultCache::cacheable(DpStatus::kInfeasible, TC::kNone));
  // Structural guard trips are pure functions of (graph, options): cache.
  EXPECT_TRUE(ResultCache::cacheable(DpStatus::kDegraded, TC::kTableGuard));
  EXPECT_TRUE(ResultCache::cacheable(DpStatus::kDegraded, TC::kWorkGuard));
  // Timing-dependent outcomes must never be cached.
  EXPECT_FALSE(ResultCache::cacheable(DpStatus::kDegraded, TC::kDeadline));
  EXPECT_FALSE(ResultCache::cacheable(DpStatus::kDegraded, TC::kCancelled));
  EXPECT_FALSE(ResultCache::cacheable(DpStatus::kOutOfMemory, TC::kDeadline));
}

// ---------------------------------------------------------------------------
// ServeCore end to end (no sockets)

ServeOptions quiet_options() {
  ServeOptions o;
  o.workers = 2;
  o.default_deadline_ms = 30000;  // tests control timing explicitly
  o.max_deadline_ms = 60000;
  o.watchdog_grace_ms = 60000;    // watchdog effectively off by default
  return o;
}

std::string solve_line(const std::string& zoo, i64 devices,
                       const std::string& extra = "") {
  return "{\"op\":\"solve\",\"zoo\":\"" + zoo + "\",\"devices\":" +
         std::to_string(devices) + extra + "}";
}

TEST(ServeCore, SolveMatchesDirectSolverBitExactly) {
  ServeCore core(quiet_options());
  const auto parsed = parse_json(core.handle_line(solve_line("mlp", 4)));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->get_string("code"), "ok");

  // The same query through the solver directly.
  const Graph graph = models::mlp(32, {256, 256, 128, 64});
  DpOptions options;
  options.config_options.max_devices = 4;
  options.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(4),
                                                CommModelKind::kSimple);
  options.degraded_fallback = true;
  const DpResult direct = find_best_strategy(graph, options);
  ASSERT_EQ(direct.status, DpStatus::kOk);
  EXPECT_EQ(parsed->get_number("cost"), direct.best_cost);
  EXPECT_EQ(parsed->get_string("strategy"),
            write_strategy(graph, direct.strategy));
}

TEST(ServeCore, RepeatQueryHitsCacheByteIdentically) {
  ServeCore core(quiet_options());
  const std::string line = solve_line("mlp", 4);
  const auto first = parse_json(core.handle_line(line));
  const auto second = parse_json(core.handle_line(line));
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->get_string("code"), "ok");
  EXPECT_EQ(first->get_string("cache"), "miss");
  EXPECT_EQ(second->get_string("code"), "ok");
  EXPECT_EQ(second->get_string("cache"), "hit");
  // The served strategy and cost are byte/bit-identical across the cold
  // solve and the verified cache hit.
  EXPECT_EQ(first->get_string("strategy"), second->get_string("strategy"));
  EXPECT_EQ(first->get_number("cost"), second->get_number("cost"));
  EXPECT_EQ(core.metrics().counter("serve.cache.hits"), 1u);
  EXPECT_EQ(core.metrics().counter("serve.cache.misses"), 1u);
}

TEST(ServeCore, InlineUniformSpecMatchesNamedMachineBitExactly) {
  // A machine_spec spelling the 1080Ti preset's numbers must serve the
  // same cost and strategy bytes as the named machine (the degenerate-
  // uniform contract, end to end through the serve path).
  ServeCore core(quiet_options());
  const auto named = parse_json(core.handle_line(solve_line("mlp", 4)));
  const auto spec = parse_json(core.handle_line(solve_line(
      "mlp", 4,
      ",\"machine_spec\":{\"name\":\"1080Ti\",\"devices\":4,"
      "\"devices_per_node\":8,\"peak_flops\":11.3e12,"
      "\"intra_node_bandwidth\":12e9,\"inter_node_bandwidth\":7e9,"
      "\"link_bandwidth\":7e9,\"gradient_comm_discount\":0.15}")));
  ASSERT_TRUE(named.has_value() && spec.has_value());
  ASSERT_EQ(named->get_string("code"), "ok");
  ASSERT_EQ(spec->get_string("code"), "ok");
  EXPECT_EQ(named->get_number("cost"), spec->get_number("cost"));
  EXPECT_EQ(named->get_string("strategy"), spec->get_string("strategy"));
  // Distinct result-cache keys (the named machine vs the spec JSON), so
  // the spec solve was a miss, not a hit on the named entry.
  EXPECT_EQ(spec->get_string("cache"), "miss");
  // Both solves rolled up under the same machine signature.
  EXPECT_EQ(core.metrics().counter("serve.machine.1080Ti/p4"), 2u);
}

TEST(ServeCore, EquivalentSpecSpellingsShareOneCacheEntry) {
  ServeCore core(quiet_options());
  const char* spec_a =
      ",\"machine_spec\":{\"devices\":4,\"peak_flops\":11.3e12,"
      "\"link_bandwidth\":7e9}";
  // Same spec, different key order: canonicalization maps both requests
  // to one result-cache key.
  const char* spec_b =
      ",\"machine_spec\":{\"link_bandwidth\":7e9,\"devices\":4,"
      "\"peak_flops\":11.3e12}";
  const auto first = parse_json(core.handle_line(solve_line("mlp", 4, spec_a)));
  const auto second =
      parse_json(core.handle_line(solve_line("mlp", 4, spec_b)));
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->get_string("cache"), "miss");
  EXPECT_EQ(second->get_string("cache"), "hit");
  EXPECT_EQ(first->get_string("strategy"), second->get_string("strategy"));
}

TEST(ServeCore, HeterogeneousSpecSolvesAndLogsHetSignature) {
  ServeOptions options = quiet_options();
  ServeCore core(options);
  const auto r = parse_json(core.handle_line(solve_line(
      "mlp", 4,
      ",\"machine_spec\":{\"name\":\"Pod\",\"devices\":4,"
      "\"device_flops\":[2e12,2e12,1e12,1e12],\"link_bandwidth\":7e9}")));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->get_string("code"), "ok");
  EXPECT_EQ(core.metrics().counter("serve.machine.Pod/p4/het"), 1u);
  // The event-log line carries the same signature.
  const std::vector<std::string> tail = core.event_log().tail();
  ASSERT_FALSE(tail.empty());
  const auto ev = parse_json(tail.back());
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->get_string("machine"), "Pod/p4/het");
  // Named hetero presets route the same way.
  const auto pod =
      parse_json(core.handle_line(solve_line(
          "mlp", 8, ",\"machine\":\"mixed_pod\"")));
  ASSERT_TRUE(pod.has_value());
  EXPECT_EQ(pod->get_string("code"), "ok");
  EXPECT_EQ(core.metrics().counter("serve.machine.MixedPod/p8/het"), 1u);
}

TEST(ServeCore, MalformedModelAndUnknownNamesAreClassified) {
  ServeOptions options = quiet_options();
  options.max_model_nodes = 2;
  ServeCore core(options);
  // Unknown zoo model.
  auto r = parse_json(core.handle_line(solve_line("skynet", 4)));
  EXPECT_EQ(r->get_string("code"), "malformed");
  // Unknown machine.
  r = parse_json(core.handle_line(
      solve_line("mlp", 4, ",\"machine\":\"abacus\"")));
  EXPECT_EQ(r->get_string("code"), "malformed");
  // Inline model whose dimension product overflows 64-bit table sizing.
  r = parse_json(core.handle_line(
      "{\"op\":\"solve\",\"model\":\"pase-model v1\\nnode a fc "
      "n=2147483648 c=2147483648\\n\"}"));
  EXPECT_EQ(r->get_string("code"), "malformed");
  EXPECT_NE(r->get_string("reason").find("overflow"), std::string::npos);
  // Inline model over the node budget (3 nodes > max_model_nodes = 2).
  r = parse_json(core.handle_line(
      "{\"op\":\"solve\",\"model\":\"pase-model v1\\nbatch 8\\n"
      "node a fc n=8 c=8\\nnode b fc n=8 c=8\\nnode c fc n=8 c=8\\n"
      "edge a b b:b n:c\\nedge b c b:b n:c\\n\"}"));
  EXPECT_EQ(r->get_string("code"), "malformed");
  EXPECT_NE(r->get_string("reason").find("maximum"), std::string::npos);
  // Malformed requests never reach the solver.
  EXPECT_EQ(core.metrics().counter("serve.responses.malformed"), 4u);
  EXPECT_EQ(core.metrics().counter("serve.cache.misses"), 0u);
}

TEST(ServeCore, PingMetricsAndShutdownOps) {
  ServeCore core(quiet_options());
  auto r = parse_json(core.handle_line("{\"op\":\"ping\",\"id\":\"p\"}"));
  EXPECT_EQ(r->get_string("code"), "ok");
  EXPECT_EQ(r->get_string("id"), "p");

  core.handle_line(solve_line("mlp", 4));
  r = parse_json(core.handle_line("{\"op\":\"metrics\"}"));
  const Json* metrics = r->get("metrics");
  ASSERT_NE(metrics, nullptr);
  const Json* counters = metrics->get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->get_number("serve.requests"), 2.0);
  EXPECT_EQ(counters->get_number("serve.responses.ok"), 2.0);

  EXPECT_FALSE(core.shutdown_requested());
  r = parse_json(core.handle_line("{\"op\":\"shutdown\"}"));
  EXPECT_EQ(r->get_string("code"), "ok");
  EXPECT_TRUE(core.shutdown_requested());
}

TEST(ServeCore, InjectedSlowRequestDegradesDeterministically) {
  ServeOptions options = quiet_options();
  options.default_deadline_ms = 100;  // budget far below the injected sleep
  options.inject.slow_rate = 1.0;
  options.inject.slow_seconds = 0.25;
  ServeCore core(options);
  const auto r = parse_json(core.handle_line(solve_line("mlp", 4)));
  // The sleep consumed the whole budget, so the solve lands on the beam
  // fallback: a valid strategy, labeled degraded — never an error.
  EXPECT_EQ(r->get_string("code"), "degraded");
  EXPECT_FALSE(r->get_string("strategy").empty());
  EXPECT_NE(r->get_string("reason").find("deadline"), std::string::npos);
  EXPECT_EQ(core.metrics().counter("serve.inject.slow"), 1u);
  EXPECT_EQ(core.watchdog_kills(), 0u);
  // Deadline-tripped results are timing-dependent: never cached.
  const auto again = parse_json(core.handle_line(solve_line("mlp", 4)));
  EXPECT_EQ(again->get_string("cache"), "miss");
}

TEST(ServeCore, InjectedStallIsKilledByWatchdog) {
  ServeOptions options = quiet_options();
  options.default_deadline_ms = 50;
  options.watchdog_grace_ms = 50;
  options.inject.stall_rate = 1.0;
  options.inject.stall_seconds = 30.0;  // far beyond any budget
  ServeCore core(options);
  const auto r = parse_json(core.handle_line(solve_line("mlp", 4)));
  EXPECT_EQ(r->get_string("code"), "error");
  EXPECT_NE(r->get_string("reason").find("watchdog"), std::string::npos);
  EXPECT_EQ(core.watchdog_kills(), 1u);
  EXPECT_EQ(core.metrics().counter("serve.watchdog.kills"), 1u);
  EXPECT_EQ(core.metrics().counter("serve.inject.stall"), 1u);
}

TEST(ServeCore, PoisonedCacheEntryIsDetectedAndResolved) {
  ServeOptions options = quiet_options();
  options.inject.poison_rate = 1.0;
  ServeCore core(options);
  const auto first = parse_json(core.handle_line(solve_line("mlp", 4)));
  EXPECT_EQ(first->get_string("code"), "ok");
  // The stored entry was corrupted after the solve; the next lookup
  // verifies, detects the mismatch, drops the entry and re-solves.
  const auto second = parse_json(core.handle_line(solve_line("mlp", 4)));
  EXPECT_EQ(second->get_string("code"), "ok");
  EXPECT_EQ(second->get_string("cache"), "poisoned");
  EXPECT_EQ(core.metrics().counter("serve.cache.poison_detected"), 1u);
  // The recovered answer is still bit-identical to the original.
  EXPECT_EQ(first->get_string("strategy"), second->get_string("strategy"));
  EXPECT_EQ(first->get_number("cost"), second->get_number("cost"));
}

TEST(ServeCore, OverloadShedsExplicitlyWithoutDeadlock) {
  ServeOptions options = quiet_options();
  options.workers = 1;
  options.queue_depth = 1;
  options.inject.slow_rate = 1.0;  // hold the admitted solve open
  options.inject.slow_seconds = 0.4;
  ServeCore core(options);

  std::string slow_response;
  std::thread holder([&] {
    slow_response = core.handle_line(solve_line("mlp", 4));
  });
  // Wait until the holder's solve is admitted, then overflow the queue
  // with a *different* query (same-key requests would dedup, not shed).
  std::string shed_response;
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    shed_response = core.handle_line(solve_line("mlp", 2));
    const auto r = parse_json(shed_response);
    if (r->get_string("code") == "shed") break;
    if (r->get_string("cache") == "hit") break;  // holder already finished
  }
  holder.join();
  const auto shed = parse_json(shed_response);
  ASSERT_TRUE(shed.has_value());
  if (shed->get_string("code") == "shed") {
    EXPECT_NE(shed->get_string("reason").find("capacity"),
              std::string::npos);
    EXPECT_GE(core.metrics().counter("serve.responses.shed"), 1u);
  }
  // The held solve still completed and was classified.
  const auto slow = parse_json(slow_response);
  EXPECT_EQ(slow->get_string("code"), "ok");
}

TEST(ServeCore, DuplicateInFlightQueriesShareOneSolve) {
  ServeOptions options = quiet_options();
  options.workers = 2;
  options.queue_depth = 1;         // only one *admission* slot...
  options.inject.slow_rate = 1.0;  // ...held open long enough to join
  options.inject.slow_seconds = 0.3;
  ServeCore core(options);

  const std::string line = solve_line("mlp", 4);
  std::string r1, r2;
  std::thread a([&] { r1 = core.handle_line(line); });
  // Give the leader a head start well inside its 300ms injected sleep, so
  // the duplicate reliably finds the flight still open.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread b([&] { r2 = core.handle_line(line); });
  a.join();
  b.join();
  const auto p1 = parse_json(r1);
  const auto p2 = parse_json(r2);
  // Both were answered (one led, one joined — neither was shed despite
  // queue_depth = 1) and agree byte-for-byte on the strategy.
  EXPECT_EQ(p1->get_string("code"), "ok");
  EXPECT_EQ(p2->get_string("code"), "ok");
  EXPECT_EQ(p1->get_string("strategy"), p2->get_string("strategy"));
  EXPECT_EQ(core.metrics().counter("serve.dedup.joined"), 1u);
  EXPECT_EQ(core.metrics().counter("serve.inject.slow"), 1u);
}

// ---------------------------------------------------------------------------
// Observability of the serve path (DESIGN.md §11): event log, rolling SLO,
// request-scoped traces. All suites here keep the Serve prefix so they ride
// the TSan lane in tools/check.sh.

TEST(ServeObs, EventLogLineIsCanonicalWithExactSchema) {
  ServeCore core(quiet_options());
  core.handle_line(solve_line("mlp", 4, ",\"id\":\"q1\""));
  core.handle_line(solve_line("mlp", 4, ",\"id\":\"q2\""));
  const std::vector<std::string> tail = core.event_log().tail();
  ASSERT_EQ(tail.size(), 2u);

  // Canonical bytes: the line round-trips through the serve parser and
  // writer unchanged, and the independent test-side reader agrees.
  const auto own = parse_json(tail[0]);
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(write_json(*own), tail[0]);
  const auto miss = pase::testing::JsonParser::parse(tail[0]);
  ASSERT_TRUE(miss.has_value());

  // Cold solve: the full schema, nothing more.
  std::vector<std::string> keys;
  for (const auto& [k, v] : miss->object) keys.push_back(k);
  const std::vector<std::string> want = {
      "cache",    "code", "deadline_ms",  "id",  "machine",
      "op",       "queue_ms", "remaining_ms", "seq", "solve_ms",
      "total_ms"};
  EXPECT_EQ(keys, want);
  EXPECT_EQ(miss->get("op")->string, "solve");
  EXPECT_EQ(miss->get("machine")->string, "1080Ti/p4");
  EXPECT_EQ(miss->get("code")->string, "ok");
  EXPECT_EQ(miss->get("cache")->string, "miss");
  EXPECT_EQ(miss->get("id")->string, "q1");
  EXPECT_GE(miss->get("queue_ms")->number, 0.0);
  EXPECT_GE(miss->get("solve_ms")->number, 0.0);
  EXPECT_LE(miss->get("solve_ms")->number, miss->get("total_ms")->number);
  EXPECT_DOUBLE_EQ(miss->get("deadline_ms")->number, 30000.0);

  // Cache hit: never queued, so queue_ms/solve_ms are absent.
  const auto hit = pase::testing::JsonParser::parse(tail[1]);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get("cache")->string, "hit");
  EXPECT_EQ(hit->get("id")->string, "q2");
  EXPECT_EQ(hit->get("queue_ms"), nullptr);
  EXPECT_EQ(hit->get("solve_ms"), nullptr);
  // The event seq matches the seq stamped on the response line.
  EXPECT_EQ(hit->get("seq")->number, 1.0);
}

TEST(ServeObs, SeqIsMonotoneAndStampedOnResponses) {
  ServeCore core(quiet_options());
  for (int k = 0; k < 3; ++k) {
    const auto r = parse_json(core.handle_line("{\"op\":\"ping\"}"));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->get_number("seq", -1.0), static_cast<double>(k));
  }
  // Malformed input still gets a seq and exactly one event line.
  const auto bad = parse_json(core.handle_line("not json"));
  EXPECT_EQ(bad->get_number("seq", -1.0), 3.0);
  EXPECT_EQ(core.event_log().total(), 4u);
}

TEST(ServeObs, ConcurrentBurstLogsExactlyOneLinePerRequest) {
  ServeOptions options = quiet_options();
  options.workers = 4;
  options.event_log_memory = 256;
  ServeCore core(options);
  constexpr i64 kRequests = 48;
  std::atomic<i64> next{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const i64 k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= kRequests) return;
        core.handle_line(solve_line("mlp", (k % 2) ? 4 : 2));
      }
    });
  }
  for (auto& t : clients) t.join();

  // Exactly one line per request, every line parses, and the seqs are a
  // permutation of 0..N-1 — no drops, no duplicates under concurrency.
  EXPECT_EQ(core.event_log().total(), static_cast<u64>(kRequests));
  const std::vector<std::string> lines = core.event_log().tail();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests));
  std::set<i64> seqs;
  for (const std::string& line : lines) {
    const auto ev = parse_json(line);
    ASSERT_TRUE(ev.has_value()) << line;
    seqs.insert(static_cast<i64>(ev->get_number("seq", -1.0)));
  }
  EXPECT_EQ(seqs.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(*seqs.begin(), 0);
  EXPECT_EQ(*seqs.rbegin(), kRequests - 1);
}

TEST(ServeObs, TraceStitchesRequestSpansToSolverPhases) {
  ServeOptions options = quiet_options();
  options.trace = true;
  ServeCore core(options);
  const auto resp = parse_json(core.handle_line(solve_line("mlp", 4)));
  ASSERT_EQ(resp->get_string("code"), "ok");
  const double seq = resp->get_number("seq", -1.0);

  const auto parsed =
      pase::testing::JsonParser::parse(core.trace_chrome_json());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());

  const pase::testing::JsonValue* request = nullptr;
  const pase::testing::JsonValue* handle = nullptr;
  const pase::testing::JsonValue* solve = nullptr;
  const pase::testing::JsonValue* table_fill = nullptr;
  for (const auto& e : parsed->array) {
    const std::string& name = e.get("name")->string;
    if (name == "request") request = &e;
    if (name == "handle") handle = &e;
    if (name == "solve") solve = &e;
    if (name == "table_fill") table_fill = &e;
  }
  // One merged timeline: the transport-level request span, the handler
  // span nested inside it, and the solver's own phase spans on the worker
  // lane — all joined by the "seq" arg.
  ASSERT_NE(request, nullptr);
  ASSERT_NE(handle, nullptr);
  ASSERT_NE(solve, nullptr);
  ASSERT_NE(table_fill, nullptr) << "solver phases missing from the trace";
  EXPECT_EQ(request->get("args")->get("seq")->number, seq);
  EXPECT_EQ(solve->get("args")->get("seq")->number, seq);
  // handle nests inside request (same lane).
  EXPECT_EQ(handle->get("tid")->number, request->get("tid")->number);
  EXPECT_GE(handle->get("ts")->number, request->get("ts")->number);
  EXPECT_LE(handle->get("ts")->number + handle->get("dur")->number,
            request->get("ts")->number + request->get("dur")->number + 0.002);
  // The solver phases land on the request's worker lane.
  EXPECT_EQ(table_fill->get("tid")->number, solve->get("tid")->number);
  EXPECT_GE(table_fill->get("ts")->number, solve->get("ts")->number);
  EXPECT_EQ(core.traces_kept(), 1u);
}

TEST(ServeObs, SlowExemplarModeKeepsOnlySlowRequests) {
  ServeOptions options = quiet_options();
  options.trace = true;
  options.slow_trace_ms = 150.0;
  options.inject.slow_rate = 1.0;  // every *solve* sleeps 250ms
  options.inject.slow_seconds = 0.25;
  ServeCore core(options);

  const std::string line = solve_line("mlp", 4);
  core.handle_line(line);  // cold: injected sleep -> over threshold, kept
  core.handle_line(line);  // cache hit: no worker, fast -> dropped
  EXPECT_EQ(core.traces_kept(), 1u);
  EXPECT_EQ(core.metrics().counter("serve.trace.kept"), 1u);
  EXPECT_EQ(core.metrics().counter("serve.trace.dropped"), 1u);

  // The kept exemplar is the slow request: its injected sleep is visible.
  EXPECT_NE(core.trace_chrome_json().find("inject_slow"), std::string::npos);
}

TEST(ServeObs, MetricsOpReportsRollingSloQuantiles) {
  ServeCore core(quiet_options());
  const std::string line = solve_line("mlp", 4);
  core.handle_line(line);
  core.handle_line(line);
  core.handle_line(line);
  const auto r = parse_json(core.handle_line("{\"op\":\"metrics\"}"));
  ASSERT_TRUE(r.has_value());

  // total covers all 3 solves; queue_wait/solve only the one admitted
  // flight (the two hits never reached a worker).
  const Json* slo = r->get("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->get("window")->number, 512.0);
  EXPECT_EQ(slo->get("total")->get("count")->number, 3.0);
  EXPECT_EQ(slo->get("queue_wait")->get("count")->number, 1.0);
  EXPECT_EQ(slo->get("solve")->get("count")->number, 1.0);
  EXPECT_GT(slo->get("total")->get("p99_ms")->number, 0.0);
  EXPECT_LE(slo->get("total")->get("p50_ms")->number,
            slo->get("total")->get("p99_ms")->number);

  // The same quantiles ride the gauges section of the metrics snapshot.
  const Json* gauges = r->get("metrics")->get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->get("serve.slo.total_p50_ms"), nullptr);
  EXPECT_NE(gauges->get("serve.slo.queue_p99_ms"), nullptr);

  // slo_snapshot() agrees with the served numbers.
  const ServeCore::SloSnapshot snap = core.slo_snapshot();
  EXPECT_EQ(snap.total.count, 3);
  EXPECT_EQ(snap.queue_wait.count, 1);
  EXPECT_DOUBLE_EQ(snap.total.p50,
                   slo->get("total")->get("p50_ms")->number);
}

// ---------------------------------------------------------------------------
// One warm store: the result cache is all a core keeps across requests

/// MachineSpec::mixed_pod(p) (p <= 8: one PCIe tier) spelled as an inline
/// machine_spec, field for field.
std::string mixed_pod_spec(i64 p) {
  std::string flops;
  for (i64 d = 0; d < p; ++d)
    flops += std::string(d ? "," : "") + (d < p / 2 ? "13.4e12" : "11.3e12");
  const std::string n = std::to_string(p);
  return ",\"machine_spec\":{\"name\":\"MixedPod\",\"devices\":" + n +
         ",\"devices_per_node\":8,\"peak_flops\":11.3e12,"
         "\"device_flops\":[" + flops + "],"
         "\"intra_node_bandwidth\":12e9,\"inter_node_bandwidth\":7e9,"
         "\"link_bandwidth\":7e9,\"gradient_comm_discount\":0.15,"
         "\"link_tiers\":[{\"span\":" + n +
         ",\"bandwidth\":12e9,\"latency_s\":5e-6}]}";
}

TEST(ServeCore, MissOnWarmCoreMatchesFreshCoreAndDirectSolve) {
  // A core that already served the same topology at another device count
  // keeps nothing from it but result-cache entries, so its miss must equal
  // a fresh core's answer and a direct solve: under the auto and
  // hierarchical comm models, for the named preset and the same machine
  // spelled inline. Each repeat is a verified hit, never "poisoned".
  // The model is alexnet because auto and hier price its collectives
  // differently (on mlp they agree).
  const Graph graph = *models::zoo_graph("alexnet");
  ServeCore warm(quiet_options());
  for (const char* comm : {"auto", "hier"}) {
    for (const bool inline_spec : {false, true}) {
      const auto extra = [&](i64 p) {
        return (inline_spec ? mixed_pod_spec(p)
                            : std::string(",\"machine\":\"mixed_pod\"")) +
               ",\"comm_model\":\"" + comm + "\"";
      };
      SCOPED_TRACE(extra(8));
      const auto primed =
          parse_json(warm.handle_line(solve_line("alexnet", 4, extra(4))));
      ASSERT_EQ(primed->get_string("code"), "ok");

      const std::string line = solve_line("alexnet", 8, extra(8));
      const auto miss = parse_json(warm.handle_line(line));
      ASSERT_EQ(miss->get_string("code"), "ok");
      EXPECT_EQ(miss->get_string("cache"), "miss");

      ServeCore fresh(quiet_options());
      const auto cold = parse_json(fresh.handle_line(line));
      EXPECT_EQ(miss->get_string("strategy"), cold->get_string("strategy"));
      EXPECT_EQ(miss->get_number("cost"), cold->get_number("cost"));

      DpOptions options;
      options.config_options.max_devices = 8;
      options.cost_params = hetero_cost_params(
          MachineSpec::mixed_pod(8), *parse_comm_model_kind(comm));
      options.degraded_fallback = true;
      const DpResult direct = find_best_strategy(graph, options);
      ASSERT_EQ(direct.status, DpStatus::kOk);
      EXPECT_EQ(miss->get_number("cost"), direct.best_cost);
      EXPECT_EQ(miss->get_string("strategy"),
                write_strategy(graph, direct.strategy));

      const auto repeat = parse_json(warm.handle_line(line));
      EXPECT_EQ(repeat->get_string("cache"), "hit");
      EXPECT_EQ(repeat->get_string("strategy"), miss->get_string("strategy"));
      EXPECT_EQ(repeat->get_number("cost"), miss->get_number("cost"));
    }
  }
  EXPECT_EQ(warm.metrics().counter("serve.cache.hits"), 4u);
  EXPECT_EQ(warm.metrics().counter("serve.cache.poison_detected"), 0u);
}

// ---------------------------------------------------------------------------
// Widened strategy space over the wire: split_dims and pipeline_stages

TEST(ServeProtocol, SplitDimsAreCanonicalizedAndValidated) {
  // Equivalent spellings canonicalize to one string at parse time, so the
  // result-cache key unifies them.
  const auto a = parse_request(
      "{\"op\":\"solve\",\"zoo\":\"mlp\",\"split_dims\":"
      "\"spatial,batch,param\"}");
  ASSERT_TRUE(a.ok);
  const auto b = parse_request(
      "{\"op\":\"solve\",\"zoo\":\"mlp\",\"split_dims\":"
      "\"batch,param,spatial\"}");
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.request.split_dims, b.request.split_dims);

  // Default = the legacy space.
  const auto d = parse_request("{\"op\":\"solve\",\"zoo\":\"mlp\"}");
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.request.split_dims, "batch,param");
  EXPECT_EQ(d.request.pipeline_stages, 1);

  EXPECT_FALSE(parse_request("{\"op\":\"solve\",\"zoo\":\"mlp\","
                             "\"split_dims\":\"bogus\"}")
                   .ok);
  EXPECT_FALSE(parse_request("{\"op\":\"solve\",\"zoo\":\"mlp\","
                             "\"split_dims\":\"batch,\"}")
                   .ok);
  EXPECT_FALSE(parse_request("{\"op\":\"solve\",\"zoo\":\"mlp\","
                             "\"split_dims\":7}")
                   .ok);
}

TEST(ServeProtocol, PipelineStagesValidatedAgainstDevices) {
  const auto ok = parse_request(
      "{\"op\":\"solve\",\"zoo\":\"mlp\",\"devices\":8,"
      "\"pipeline_stages\":2,\"microbatches\":16}");
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.request.pipeline_stages, 2);
  EXPECT_EQ(ok.request.microbatches, 16);
  // 3 does not divide 8.
  EXPECT_FALSE(parse_request("{\"op\":\"solve\",\"zoo\":\"mlp\","
                             "\"devices\":8,\"pipeline_stages\":3}")
                   .ok);
  // Out of range (boundary DP coarsens to ~24 cuts).
  EXPECT_FALSE(parse_request("{\"op\":\"solve\",\"zoo\":\"mlp\","
                             "\"devices\":32,\"pipeline_stages\":32}")
                   .ok);
  EXPECT_FALSE(parse_request("{\"op\":\"solve\",\"zoo\":\"mlp\","
                             "\"microbatches\":0}")
                   .ok);
}

TEST(ServeCore, SplitDimsKeyMissesThenHitsAndSpellingsShareOneEntry) {
  ServeCore core(quiet_options());
  const auto plain = parse_json(core.handle_line(solve_line("mlp", 4)));
  ASSERT_EQ(plain->get_string("code"), "ok");
  // A widened request is a different key: miss, not a false hit off the
  // legacy entry.
  const auto widened = parse_json(core.handle_line(
      solve_line("mlp", 4, ",\"split_dims\":\"all\"")));
  ASSERT_EQ(widened->get_string("code"), "ok");
  EXPECT_EQ(widened->get_string("cache"), "miss");
  // mlp is FC-only, so the widened space degenerates to the legacy one and
  // the answers must agree bit for bit — through different cache entries.
  EXPECT_EQ(widened->get_number("cost"), plain->get_number("cost"));
  EXPECT_EQ(widened->get_string("strategy"), plain->get_string("strategy"));
  // An equivalent spelling of the same space is a hit on the same entry.
  const auto respelled = parse_json(core.handle_line(solve_line(
      "mlp", 4, ",\"split_dims\":\"channel,spatial,param,batch\"")));
  EXPECT_EQ(respelled->get_string("cache"), "hit");
  // An explicit legacy spelling hits the default entry.
  const auto legacy = parse_json(core.handle_line(
      solve_line("mlp", 4, ",\"split_dims\":\"batch,param\"")));
  EXPECT_EQ(legacy->get_string("cache"), "hit");
  EXPECT_EQ(core.metrics().counter("serve.cache.hits"), 2u);
  EXPECT_EQ(core.metrics().counter("serve.cache.misses"), 2u);
}

TEST(ServeCore, PipelineStagesSolveRoundTripAndKeying) {
  ServeCore core(quiet_options());
  const auto plain = parse_json(
      core.handle_line(solve_line("transformer_pipelined", 8)));
  ASSERT_EQ(plain->get_string("code"), "ok");
  const std::string pipelined_line = solve_line(
      "transformer_pipelined", 8, ",\"pipeline_stages\":2");
  const auto first = parse_json(core.handle_line(pipelined_line));
  ASSERT_EQ(first->get_string("code"), "ok");
  EXPECT_EQ(first->get_string("cache"), "miss");  // distinct key
  const auto second = parse_json(core.handle_line(pipelined_line));
  ASSERT_EQ(second->get_string("code"), "ok");
  EXPECT_EQ(second->get_string("cache"), "hit");
  EXPECT_EQ(first->get_string("strategy"), second->get_string("strategy"));
  EXPECT_EQ(first->get_number("cost"), second->get_number("cost"));
  // Micro-batch count steers which partition wins, so it is part of the
  // key too.
  const auto more_mb = parse_json(core.handle_line(solve_line(
      "transformer_pipelined", 8,
      ",\"pipeline_stages\":2,\"microbatches\":64")));
  ASSERT_EQ(more_mb->get_string("code"), "ok");
  EXPECT_EQ(more_mb->get_string("cache"), "miss");
}

TEST(ServeCore, PipelineStagesExceedingLayersIsMalformed) {
  ServeCore core(quiet_options());
  // mlp has 4 layers; 8 stages parses (8 divides 8) but cannot partition.
  const auto r = parse_json(core.handle_line(
      solve_line("mlp", 8, ",\"pipeline_stages\":8")));
  EXPECT_EQ(r->get_string("code"), "malformed");
}

}  // namespace
}  // namespace pase::serve
