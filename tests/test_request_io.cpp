// request_io: the versioned PlanRequest / PlanError JSON artifacts that
// ride the karma-pland wire (DESIGN.md §12). The load-bearing property is
// KEY PRESERVATION: a request that crosses the wire must plan against the
// same cache entry as the original — request_key(round_trip(r)) ==
// request_key(r) — otherwise the fleet-wide single-flight and the storm
// test's byte-identity guarantee silently fall apart.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/engine.h"
#include "src/api/plan_io.h"
#include "src/api/request_fields.h"
#include "src/api/request_io.h"
#include "src/cache/request_key.h"
#include "src/calib/profile.h"
#include "src/graph/model_zoo.h"
#include "src/place/fleet.h"
#include "src/util/enum_names.h"

namespace karma::api {
namespace {

PlanRequest resnet_request(std::int64_t batch = 512) {
  PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = 30;
  request.probe_feasible_batch = false;
  return request;
}

/// Exercises every optional corner of the schema at once: skip edges,
/// a distributed spec with non-default everything, an exotic optimizer,
/// a 64-bit seed past int64, and search limits.
PlanRequest kitchen_sink_request() {
  PlanRequest request;
  request.model = graph::make_unet(/*batch=*/8);  // has skip edges
  request.device = sim::v100_abci();
  request.planner.enable_recompute = false;
  request.planner.min_blocks = 3;
  request.planner.max_blocks = 17;
  request.planner.anneal_iterations = 7;
  request.planner.seed = 0xDEADBEEFCAFEF00Dull;  // > int64 max when doubled
  request.optimizer.kind = OptimizerSpec::Kind::kAdam;
  request.optimizer.host_resident = true;
  request.optimizer.state_bytes_per_param_byte = 3.25;
  core::DistributedOptions dist;
  dist.num_gpus = 16;
  dist.net.gpus_per_node = 8;
  dist.net.intra_bw = 123.5e9;
  dist.net.intra_latency = 2.5e-6;
  dist.net.inter_bw = 25e9;
  dist.net.inter_latency = 11e-6;
  dist.exchange = core::ExchangeMode::kPerBlock;
  dist.update = core::UpdateSite::kDevice;
  dist.iterations = 3;
  dist.weight_shard_fraction = 0.0625;
  request.distributed = dist;
  request.probe_feasible_batch = true;
  request.limits.deadline = 1.5;
  request.limits.max_candidates = 4242;
  return request;
}

/// The mixed-generation fleet: contended V100 NVMe (a non-default
/// nvme_contention group), plus a calibrated A100 (a non-default scale).
PlanRequest fleet_request() {
  PlanRequest request;
  request.model = graph::make_vgg16(/*batch=*/4);
  request.device = sim::v100_abci_nvme();
  request.planner.anneal_workers = 2;
  request.optimizer.kind = OptimizerSpec::Kind::kSgdMomentum;
  request.fleet = place::mixed_generation_fleet(/*strong=*/1, /*weak=*/2,
                                                Bytes{9} << 30);
  request.fleet->nodes[0].device.scale.h2d = 0.75;
  request.fleet->strategy = place::PlacementStrategy::kRoundRobin;
  request.probe_feasible_batch = false;
  return request;
}

TEST(RequestIo, WireFormMatchesTheGoldenFixture) {
  // Pins the request JSON byte for byte: the kitchen-sink request and the
  // fleet request, one per line of a JSON array.
  const std::string path =
      std::string(KARMA_SOURCE_DIR) + "/tests/golden/request_fixture.json";
  const std::string actual = "[\n" + request_to_json(kitchen_sink_request()) +
                             ",\n" + request_to_json(fleet_request()) + "\n]";

  if (std::getenv("KARMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    GTEST_SKIP() << "regenerated golden fixture at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — regenerate with KARMA_REGEN_GOLDEN=1 ./test_request_io";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(actual, expected)
      << "request JSON schema drifted; if intentional, regenerate with "
         "KARMA_REGEN_GOLDEN=1 and review the diff";
}

/// The request kinds the planner benchmark plans: VGG16, the three
/// ResNets, U-Net, data-parallel x4 and the mixed-generation fleet.
std::vector<PlanRequest> benchmark_requests() {
  std::vector<PlanRequest> requests;
  for (graph::Model model :
       {graph::make_vgg16(128), graph::make_resnet50(512),
        graph::make_resnet200(16), graph::make_resnet1001(256),
        graph::make_unet(24)}) {
    PlanRequest r = resnet_request();
    r.model = std::move(model);
    requests.push_back(std::move(r));
  }
  PlanRequest dp = resnet_request(128);
  dp.distributed = core::DistributedOptions{};
  dp.distributed->num_gpus = 4;
  requests.push_back(dp);
  PlanRequest fleet = resnet_request(256);
  fleet.fleet = place::mixed_generation_fleet(2, 2, 48LL << 30);
  requests.push_back(fleet);
  return requests;
}

TEST(RequestIo, RoundTripPreservesTheRequestKey) {
  std::vector<PlanRequest> requests = benchmark_requests();
  requests.push_back(kitchen_sink_request());
  requests.push_back(fleet_request());
  for (const PlanRequest& request : requests) {
    const std::string json = request_to_json(request);
    auto back = request_from_json(json);
    ASSERT_TRUE(back.has_value()) << json.substr(0, 200);
    EXPECT_EQ(cache::request_key(request).hex(),
              cache::request_key(back.value()).hex());
  }
}

TEST(RequestIo, RoundTripIsByteStable) {
  for (const PlanRequest& request :
       {resnet_request(), kitchen_sink_request(), fleet_request()}) {
    const std::string json = request_to_json(request);
    auto back = request_from_json(json);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(request_to_json(back.value()), json);
  }
}

TEST(RequestIo, RoundTripPreservesNonKeyFields) {
  // limits and the probe flag are deliberately OUTSIDE the fingerprint
  // (a deadline must not fork the cache) but must still cross the wire.
  const PlanRequest request = kitchen_sink_request();
  auto back = request_from_json(request_to_json(request));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->probe_feasible_batch, true);
  EXPECT_DOUBLE_EQ(back->limits.deadline, 1.5);
  EXPECT_EQ(back->limits.max_candidates, 4242);
  ASSERT_TRUE(back->distributed.has_value());
  EXPECT_EQ(back->distributed->num_gpus, 16);
  EXPECT_EQ(back->planner.seed, 0xDEADBEEFCAFEF00Dull);
}

TEST(RequestIo, SkipEdgesSurviveReconstruction) {
  // Only non-chain edges serialize (add_layer wires the chain); the U-Net
  // skips must come back exactly for the fingerprint to match.
  const PlanRequest request = kitchen_sink_request();
  auto back = request_from_json(request_to_json(request));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->model.layers().size(), request.model.layers().size());
  for (std::size_t i = 0; i < request.model.layers().size(); ++i) {
    const int id = static_cast<int>(i);
    EXPECT_EQ(back->model.succs(id), request.model.succs(id))
        << "layer " << id;
  }
}

TEST(RequestIo, MalformedRequestIsAParseError) {
  for (const char* bad :
       {"", "not json", "[]", "{\"version\":1}",
        "{\"version\":99,\"model\":{}}"}) {
    auto parsed = request_from_json(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.error().code, PlanErrorCode::kParseError) << bad;
  }
}

TEST(RequestIo, DeepNestingIsAParseErrorNotACrash) {
  // Past util::json::kMaxDepth the parser refuses; unbounded, a million
  // brackets overflowed the stack of whichever thread parsed them.
  const std::string brackets(1'000'000, '[');
  const std::string in_a_member = "{\"version\":2,\"model\":" + brackets;
  for (const std::string& deep : {brackets, in_a_member}) {
    const auto request = request_from_json(deep);
    ASSERT_FALSE(request.has_value());
    EXPECT_EQ(request.error().code, PlanErrorCode::kParseError);
    const auto plan = plan_from_json(deep);
    ASSERT_FALSE(plan.has_value());
    EXPECT_EQ(plan.error().code, PlanErrorCode::kParseError);
  }
}

TEST(RequestIo, NegativeSeedIsAParseErrorNotAWrap) {
  // strtoull accepts "-1" and wraps it to 2^64-1 without ERANGE; the
  // reader must reject it instead of silently planning with a huge seed.
  const std::string json = request_to_json(kitchen_sink_request());
  const std::string good = "\"seed\":\"16045690984503111693\"";
  ASSERT_NE(json.find(good), std::string::npos);
  for (const char* bad : {"\"seed\":\"-1\"", "\"seed\":\"+7\"",
                          "\"seed\":\" 7\"", "\"seed\":\"\""}) {
    std::string mutated = json;
    mutated.replace(mutated.find(good), good.size(), bad);
    auto parsed = request_from_json(mutated);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.error().code, PlanErrorCode::kParseError) << bad;
  }
}

TEST(RequestIo, ShapeWhoseElementCountOverflowsIsAParseError) {
  // 2^32 cubed overflows int64: the TensorShape constructor must refuse
  // it, or numel() is signed overflow (undefined behavior).
  const std::string json = request_to_json(kitchen_sink_request());
  const std::string good = "\"in\":[8,1,512,512]";
  ASSERT_NE(json.find(good), std::string::npos);
  std::string mutated = json;
  mutated.replace(mutated.find(good), good.size(),
                  "\"in\":[4294967296,4294967296,4294967296]");
  auto parsed = request_from_json(mutated);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, PlanErrorCode::kParseError);
}

TEST(RequestIo, WrongTypedListIsAParseError) {
  // A list field holding a non-array must not read as an empty list: the
  // U-Net would silently lose its skip edges and plan as another model.
  const std::string json = request_to_json(kitchen_sink_request());
  for (const char* list : {"\"skips\":", "\"layers\":", "\"in\":"}) {
    std::string mutated = json;
    mutated.insert(mutated.find(list) + std::strlen(list), "5,\"x\":");
    auto parsed = request_from_json(mutated);
    ASSERT_FALSE(parsed.has_value()) << list;
    EXPECT_EQ(parsed.error().code, PlanErrorCode::kParseError) << list;
  }
}

TEST(RequestIo, VersionOnePayloadsStillParse) {
  // v1 predates the fleet: no fleet key, and a stray one is not read.
  const PlanRequest request = kitchen_sink_request();
  std::string json = request_to_json(request);
  const std::string v2 = "{\"version\":2,";
  const std::string fleet = ",\"fleet\":null";
  ASSERT_EQ(json.rfind(v2, 0), 0u);
  ASSERT_NE(json.find(fleet), std::string::npos);
  json.replace(0, v2.size(), "{\"version\":1,");
  std::string with_fleet = json;
  with_fleet.replace(with_fleet.find(fleet), fleet.size(),
                     ",\"fleet\":" + fleet_to_json(*fleet_request().fleet));
  json.erase(json.find(fleet), fleet.size());
  for (const std::string& v1 : {json, with_fleet}) {
    auto parsed = request_from_json(v1);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_FALSE(parsed->fleet.has_value());
    EXPECT_EQ(cache::request_key(parsed.value()), cache::request_key(request));
  }
}

// ---------------------------------------------------------------------------
// Field lists
// ---------------------------------------------------------------------------

/// Walks a request's field lists and perturbs exactly one leaf field: the
/// `target`-th in list order. Lists contribute their first element; an
/// optional is itself a leaf (its presence) before its value's fields.
class Perturb {
 public:
  explicit Perturb(int target) : target_(target) {}

  std::string leaf;    ///< JSON name of the perturbed field ("" = none)
  bool keyed = true;   ///< whether that field is keyed

  template <class T>
  void operator()(const char* key, T& x) {
    visit(key, x);
  }
  template <class T>
  void operator()(const char* key, T& x, Unkeyed) {
    const bool outer = unkeyed_;
    unkeyed_ = true;
    visit(key, x);
    unkeyed_ = outer;
  }
  void operator()(const char*, const int&, SchemaVersion) {}
  template <class T>
  void operator()(const char*, T& x, Inline) {
    fields(*this, x);
  }
  template <class T>
  void operator()(const char*, T& x, IfNotDefault) {
    fields(*this, x);
  }
  template <class E>
  void operator()(const char* key, E& x, Named<E> tag) {
    at(key, [&] { x = next(x, tag.last); });
  }
  template <class E>
  void operator()(const char* key, E& x, Coded<E> tag) {
    at(key, [&] { x = next(x, tag.last); });
  }
  void operator()(const char* key, std::uint64_t& x, DecimalText) {
    at(key, [&] { x ^= 1; });
  }

 private:
  template <class E>
  static E next(E x, E last) {
    return static_cast<E>((static_cast<int>(x) + 1) %
                          (static_cast<int>(last) + 1));
  }
  template <class F>
  void at(const char* key, F perturb) {
    if (seen_++ != target_) return;
    perturb();
    leaf = key;
    keyed = !unkeyed_;
  }
  void visit(const char* key, std::string& x) {
    at(key, [&] { x += "x"; });
  }
  void visit(const char* key, bool& x) {
    at(key, [&] { x = !x; });
  }
  void visit(const char* key, int& x) {
    at(key, [&] { ++x; });
  }
  void visit(const char* key, std::int64_t& x) {
    at(key, [&] { ++x; });
  }
  void visit(const char* key, double& x) {
    at(key, [&] { x = x == 0.0 ? 1.0 : 2.0 * x; });
  }
  void visit(const char* key, graph::TensorShape& x) {
    at(key, [&] { x = x.with_batch(x.batch() + 1); });
  }
  void visit(const char* key, SkipPairs& x) {
    at(key, [&] {
      if (x.empty()) x.push_back({0, 2});
      else x.erase(x.begin());
    });
  }
  template <class T>
  void visit(const char* key, std::vector<T>& xs) {
    if (!xs.empty()) visit(key, xs.front());
  }
  template <class T>
  void visit(const char* key, std::optional<T>& x) {
    const bool present = x.has_value();
    at(key, [&] {
      if (present) x.reset();
      else x.emplace();
    });
    if (present && x) visit(key, *x);
  }
  template <class T>
  void visit(const char*, T& x) {
    fields(*this, x);
  }

  int target_;
  int seen_ = 0;
  bool unkeyed_ = false;
};

TEST(RequestFields, EveryFieldIsKeyedUnlessUnkeyedAndSurvivesTheWire) {
  // Perturbs each leaf field of the field lists in turn. A keyed field
  // must change the key; probe_feasible_batch and limits must not. Every
  // field, keyed or not, must change the wire form and round-trip.
  for (const PlanRequest& base : {kitchen_sink_request(), fleet_request()}) {
    const cache::RequestKey base_key = cache::request_key(base);
    const std::string base_json = request_to_json(base);
    int keyed = 0;
    std::set<std::string> unkeyed;
    for (int target = 0;; ++target) {
      PlanRequest changed = base;
      Perturb perturb(target);
      fields(perturb, changed);
      if (perturb.leaf.empty()) break;
      const std::string what =
          "field #" + std::to_string(target) + " '" + perturb.leaf + "'";
      if (perturb.keyed) {
        ++keyed;
        EXPECT_NE(cache::request_key(changed), base_key) << what;
      } else {
        unkeyed.insert(perturb.leaf);
        EXPECT_EQ(cache::request_key(changed), base_key) << what;
      }
      const std::string json = request_to_json(changed);
      EXPECT_NE(json, base_json) << what << " is not on the wire";
      auto back = request_from_json(json);
      ASSERT_TRUE(back.has_value()) << what << ": " << back.error().message;
      EXPECT_EQ(request_to_json(back.value()), json) << what;
      EXPECT_EQ(cache::request_key(back.value()),
                cache::request_key(changed))
          << what;
    }
    EXPECT_GT(keyed, 50);
    EXPECT_EQ(unkeyed, (std::set<std::string>{"probe_feasible_batch",
                                              "deadline", "max_candidates"}));
  }
}

TEST(EnumNames, EveryEnumeratorsNameMapsBackToIt) {
  const auto check = [](auto name_of, auto last) {
    using E = decltype(last);
    for (int i = 0; i <= static_cast<int>(last); ++i) {
      const auto e = static_cast<E>(i);
      EXPECT_EQ(util::enum_from_name<E>(name_of(e), name_of, last), e)
          << name_of(e);
    }
    // `last` really is the last: the name functions answer "?" past it.
    EXPECT_STREQ(name_of(static_cast<E>(static_cast<int>(last) + 1)), "?");
    EXPECT_FALSE(util::enum_from_name<E>("no-such-name", name_of, last));
    EXPECT_THROW(util::enum_from_name<E>("no-such-name", name_of, last, "x"),
                 std::runtime_error);
  };
  check(graph::layer_kind_name, graph::LayerKind::kGeLU);
  check(plan_error_code_name, PlanErrorCode::kUnavailable);
  check(tier::tier_name, tier::Tier::kNvme);
  check(tier::residency_name, tier::Residency::kOptimizerState);
  check(core::block_policy_name, core::BlockPolicy::kSwapNvme);
  check(sim::op_kind_name, sim::OpKind::kDeviceUpdate);
  check(place::placement_strategy_name,
        place::PlacementStrategy::kRoundRobin);
  check(calib::cost_kind_name, calib::CostKind::kCpuUpdate);
  for (const calib::CostKind kind : calib::kAllCostKinds)
    EXPECT_EQ(calib::cost_kind_from(calib::cost_kind_name(kind)), kind);
}

// ---------------------------------------------------------------------------
// PlanError artifacts
// ---------------------------------------------------------------------------

/// `e` through its field list's writer and reader.
PlanError round_trip(const PlanError& e) {
  PlanError back;
  JsonIn::read(util::json::parse(write_json(e)), back);
  return back;
}

TEST(RequestIo, ErrorRoundTripPreservesEveryField) {
  PlanError e;
  e.code = PlanErrorCode::kTierOverflow;
  e.message = "demand exceeds every tier \"quoted\"";
  e.model = "resnet50-b512";
  e.device = "V100-ABCI";
  e.violating_layer = 42;
  e.violating_block = 7;
  e.deficits.push_back({tier::Tier::kHost, 1000, 800});
  e.deficits.push_back({tier::Tier::kNvme, 5000, 4096});
  e.nearest_feasible_batch = 384;
  e.probe_candidates = 9;
  e.probe_cache_hits = 3;
  e.from_negative_cache = true;
  e.retry_after = 0.25;

  const PlanError back = round_trip(e);
  EXPECT_EQ(back.code, e.code);
  EXPECT_EQ(back.message, e.message);
  EXPECT_EQ(back.model, e.model);
  EXPECT_EQ(back.device, e.device);
  EXPECT_EQ(back.violating_layer, e.violating_layer);
  EXPECT_EQ(back.violating_block, e.violating_block);
  ASSERT_EQ(back.deficits.size(), 2u);
  EXPECT_EQ(back.deficits[0].tier, tier::Tier::kHost);
  EXPECT_EQ(back.deficits[0].required, 1000);
  EXPECT_EQ(back.deficits[1].capacity, 4096);
  EXPECT_EQ(back.nearest_feasible_batch, 384);
  EXPECT_EQ(back.probe_candidates, 9);
  EXPECT_EQ(back.probe_cache_hits, 3);
  EXPECT_TRUE(back.from_negative_cache);
  EXPECT_DOUBLE_EQ(back.retry_after, 0.25);
  EXPECT_EQ(back.partial, nullptr);
}

TEST(RequestIo, ErrorRoundTripCarriesThePartialPlanByteExactly) {
  // A deadline error ships the best-so-far artifact; across the wire it
  // must stay the same bytes (the plan artifact is spliced verbatim).
  const auto planned =
      Engine::create()->session().plan(resnet_request(256));
  ASSERT_TRUE(planned.has_value());
  PlanError e;
  e.code = PlanErrorCode::kDeadline;
  e.message = "out of budget";
  e.partial = std::make_shared<const Plan>(planned.value());

  const PlanError back = round_trip(e);
  EXPECT_EQ(back.code, PlanErrorCode::kDeadline);
  ASSERT_NE(back.partial, nullptr);
  EXPECT_EQ(back.partial->to_json(), planned.value().to_json());
}

TEST(RequestIo, MalformedErrorIsRejected) {
  PlanError e;
  EXPECT_THROW(JsonIn::read(util::json::parse("{\"garbage\":true}"), e),
               std::runtime_error);
}

}  // namespace
}  // namespace karma::api
