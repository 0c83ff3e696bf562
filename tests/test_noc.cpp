// Unit tests: mesh geometry, XY routing, cluster partitioning, network
// timing and traffic accounting.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"

using namespace tdn;
using namespace tdn::noc;

TEST(Mesh, CoordsRoundTrip) {
  Mesh m(4, 4);
  for (CoreId t = 0; t < 16; ++t) EXPECT_EQ(m.tile(m.coord(t)), t);
  EXPECT_EQ(m.coord(5).x, 1u);
  EXPECT_EQ(m.coord(5).y, 1u);
}

TEST(Mesh, ManhattanHops) {
  Mesh m(4, 4);
  EXPECT_EQ(m.hops(0, 0), 0u);
  EXPECT_EQ(m.hops(0, 3), 3u);
  EXPECT_EQ(m.hops(0, 15), 6u);
  EXPECT_EQ(m.hops(5, 10), 2u);
}

TEST(Mesh, XyRouteProperties) {
  Mesh m(4, 4);
  for (CoreId a = 0; a < 16; ++a) {
    for (CoreId b = 0; b < 16; ++b) {
      const auto path = m.xy_route(a, b);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      EXPECT_EQ(path.size(), m.hops(a, b) + 1);
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_EQ(m.hops(path[i], path[i + 1]), 1u);
    }
  }
}

TEST(Mesh, TheoreticalMeanDistanceIs2Point5On4x4) {
  Mesh m(4, 4);
  EXPECT_NEAR(m.theoretical_mean_distance(), 2.5, 1e-9);
}

TEST(Mesh, QuadrantClusters) {
  Mesh m(4, 4);
  // Quadrants: {0,1,4,5}, {2,3,6,7}, {8,9,12,13}, {10,11,14,15}
  EXPECT_EQ(m.cluster_of(0), m.cluster_of(5));
  EXPECT_NE(m.cluster_of(0), m.cluster_of(2));
  const auto c0 = m.cluster_tiles(0);
  EXPECT_EQ(c0, (std::vector<CoreId>{0, 1, 4, 5}));
  const auto c3 = m.cluster_tiles(3);
  EXPECT_EQ(c3, (std::vector<CoreId>{10, 11, 14, 15}));
}

TEST(Network, LatencyMatchesHops) {
  sim::EventQueue eq;
  Mesh m(4, 4);
  Network net(m, eq, {.link_latency = 1, .router_latency = 1});
  Cycle arrival = 0;
  net.send(0, 3, MsgClass::Control, [&] { arrival = eq.now(); });
  eq.run();
  EXPECT_EQ(arrival, 3u * 2u);  // 3 hops x (router + link)
}

TEST(Network, LocalDeliveryIsImmediateButOrdered) {
  sim::EventQueue eq;
  Mesh m(2, 2);
  Network net(m, eq, {});
  bool delivered = false;
  net.send(1, 1, MsgClass::Data, [&] { delivered = true; });
  EXPECT_FALSE(delivered);  // deferred through the queue
  eq.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(eq.now(), 0u);
}

TEST(Network, RouterByteAccounting) {
  sim::EventQueue eq;
  Mesh m(4, 4);
  NetworkConfig cfg;
  Network net(m, eq, cfg);
  net.send(0, 1, MsgClass::Data, [] {});
  eq.run();
  // Data message traverses 2 routers (src + dst).
  EXPECT_EQ(net.total_router_bytes(), 2u * cfg.data_bytes);
  EXPECT_EQ(net.router_bytes_at(0), cfg.data_bytes);
  EXPECT_EQ(net.router_bytes_at(1), cfg.data_bytes);
  EXPECT_EQ(net.router_bytes_at(2), 0u);
  EXPECT_EQ(net.messages(), 1u);
  EXPECT_EQ(net.data_messages(), 1u);
  EXPECT_EQ(net.total_hops(), 1u);
}

TEST(Network, LinkSerializationQueues) {
  sim::EventQueue eq;
  Mesh m(4, 1);
  NetworkConfig cfg;
  cfg.link_bytes_per_cycle = 8;  // 72B data = 9 cycles serialization
  Network net(m, eq, cfg);
  Cycle first = 0, second = 0;
  net.send(0, 1, MsgClass::Data, [&] { first = eq.now(); });
  net.send(0, 1, MsgClass::Data, [&] { second = eq.now(); });
  eq.run();
  EXPECT_EQ(first, 2u);
  // Second message waits for the link: departs at 9, arrives 9+2.
  EXPECT_EQ(second, 11u);
}

TEST(Network, ControlSmallerThanData) {
  sim::EventQueue eq;
  Mesh m(2, 2);
  Network net(m, eq, {});
  EXPECT_LT(net.bytes_of(MsgClass::Control), net.bytes_of(MsgClass::Data));
}

TEST(Network, HealthySendChargesTheXyRoute) {
  // A healthy send must charge exactly the routers, links and hops of
  // Mesh::xy_route, for every (src, dst) of several mesh shapes.
  for (const auto& [w, h] : {std::pair{4u, 4u}, {4u, 2u}, {8u, 4u}, {3u, 5u}}) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    sim::EventQueue eq;
    Mesh m(w, h);
    NetworkConfig cfg;
    Network net(m, eq, cfg);
    const unsigned bytes = net.bytes_of(MsgClass::Control);
    for (CoreId a = 0; a < m.tiles(); ++a) {
      for (CoreId b = 0; b < m.tiles(); ++b) {
        const auto path = m.xy_route(a, b);
        std::vector<std::uint64_t> routers(m.tiles());
        std::vector<std::uint64_t> links(m.tiles() * Network::kLinkDirs);
        for (CoreId t = 0; t < m.tiles(); ++t) {
          routers[t] = net.router_bytes_at(t);
          for (unsigned d = 0; d < Network::kLinkDirs; ++d)
            if (net.has_link(t, d))
              links[t * Network::kLinkDirs + d] = net.link_bytes(t, d);
        }
        for (const CoreId t : path) routers[t] += bytes;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const Coord from = m.coord(path[i]);
          const Coord to = m.coord(path[i + 1]);
          const unsigned dir = to.x > from.x   ? 0
                               : to.x < from.x ? 1
                               : to.y < from.y ? 2
                                               : 3;
          links[path[i] * Network::kLinkDirs + dir] += bytes;
        }
        const std::uint64_t hops_before = net.total_hops();
        const Cycle sent = eq.now();
        Cycle arrival = 0;
        net.send(a, b, MsgClass::Control, [&] { arrival = eq.now(); });
        eq.run();
        EXPECT_EQ(net.total_hops() - hops_before, path.size() - 1);
        EXPECT_EQ(arrival - sent,
                  (path.size() - 1) * (cfg.router_latency + cfg.link_latency));
        for (CoreId t = 0; t < m.tiles(); ++t) {
          EXPECT_EQ(net.router_bytes_at(t), routers[t]) << a << "->" << b;
          for (unsigned d = 0; d < Network::kLinkDirs; ++d) {
            if (net.has_link(t, d)) {
              EXPECT_EQ(net.link_bytes(t, d), links[t * Network::kLinkDirs + d])
                  << a << "->" << b << " link " << t << Network::dir_name(d);
            }
          }
        }
      }
    }
  }
}
