// Fleet-scale request router: picks a replica ServeEngine for every arriving
// inference request.
//
// The router is pure control logic, like BatchQueue and ScalePolicy: it
// owns no replicas and no clock. The replica driver
// (src/serve/replica_driver.cc) hands it the currently routable replica set
// (the autoscaler's warm replicas) and a load estimator over its batch
// queues, and the router returns a replica index. Keeping it stateless
// apart from the round-robin cursor and the power-of-two-choices Rng makes
// every policy unit-testable against synthetic queues and byte-deterministic
// for a fixed seed — all randomness is consumed in request order on the
// single-threaded simulation clock.
//
// Policies:
//   kRoundRobin  — cycle through the routable set; oblivious to load.
//   kLeastLoaded — full scan for the minimum load estimate (join the
//                  shortest queue); ties break toward the lowest index.
//   kPowerOfTwo  — SLO-aware power-of-two-choices: sample two distinct
//                  replicas, route to the one whose estimated backlog (and
//                  thus expected queueing toward the SLO budget) is lower.
//                  O(1) per decision with most of least-loaded's tail
//                  benefit, which is why production routers use it.

#ifndef OOBP_SRC_SERVE_ROUTER_H_
#define OOBP_SRC_SERVE_ROUTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace oobp {

enum class RoutingPolicy {
  kRoundRobin,
  kLeastLoaded,
  kPowerOfTwo,
};

// Short stable names used in scenario ids and CLI params: "rr", "ll", "p2c".
const char* RoutingPolicyName(RoutingPolicy policy);

// Parses either the short name or the long form ("round-robin",
// "least-loaded", "power-of-two"). Returns false on unknown input.
bool ParseRoutingPolicy(const std::string& name, RoutingPolicy* out);

struct RouterConfig {
  RoutingPolicy policy = RoutingPolicy::kLeastLoaded;
  uint64_t seed = 1;  // power-of-two candidate draws
};

class FleetRouter {
 public:
  // Load estimate for one replica, in queued-request units (the fleet engine
  // reports batcher queue depth plus in-flight batch backlog). Lower is
  // better; only relative order matters.
  using LoadFn = std::function<int64_t(int replica)>;

  FleetRouter(RouterConfig config, LoadFn load);
  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Picks a replica from `routable` (ascending indices, must be non-empty).
  // The set may change between calls as the autoscaler acts; round-robin
  // keeps a monotone cursor so a membership change never resets fairness.
  int Route(const std::vector<int>& routable);

  int64_t decisions() const { return decisions_; }
  const RouterConfig& config() const { return config_; }

 private:
  RouterConfig config_;
  LoadFn load_;
  Rng rng_;
  uint64_t rr_cursor_ = 0;
  int64_t decisions_ = 0;
};

}  // namespace oobp

#endif  // OOBP_SRC_SERVE_ROUTER_H_
