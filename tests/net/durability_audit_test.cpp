// The kill-9 durability auditor (tools/fleet_common.h) on hand-built
// supervisor events, replica start lines and client acks. Every real run
// that reaches the auditor is expected to pass, so only these fixtures
// show that it can fail one: persist-before-ack is violated when a
// replica restarted after a kill reloads less than it had acknowledged
// before the kill.
#include "fleet_common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace compreg::tools {
namespace {

using net::real::ProcEvent;

ProcEvent kill_at(int node, std::int64_t t_ns) {
  ProcEvent ev;
  ev.kind = ProcEvent::Kind::kKill;
  ev.node = node;
  ev.t_ns = t_ns;
  return ev;
}

ProcEvent spawn_at(int node, std::int64_t t_ns) {
  ProcEvent ev;
  ev.kind = ProcEvent::Kind::kSpawn;
  ev.node = node;
  ev.t_ns = t_ns;
  return ev;
}

// The fleet's first boot (t=0, no durable file) plus one kill of replica
// 1 at t=1000.
std::vector<ProcEvent> one_cycle() {
  return {spawn_at(0, 0), spawn_at(1, 0), spawn_at(2, 0), kill_at(1, 1000),
          spawn_at(1, 1100)};
}

std::vector<AuditStart> boots_then(AuditStart restart) {
  return {AuditStart{0, 0, 0, 10}, AuditStart{1, 0, 0, 10},
          AuditStart{2, 0, 0, 10}, restart};
}

TEST(DurabilityAuditTest, RestartBelowAckedTsIsPersistBeforeAckViolation) {
  int audited = -1;
  const auto findings = audit_durability(
      one_cycle(), boots_then(AuditStart{1, 6, 1, 1200}),
      {AckRec{1, 5, 400}, AckRec{1, 7, 900}, AckRec{0, 9, 950}}, &audited);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("durable_ts 6 < acked ts 7"), std::string::npos)
      << findings[0];
  EXPECT_NE(findings[0].find("persist-before-ack"), std::string::npos);
  EXPECT_EQ(audited, 1);
}

TEST(DurabilityAuditTest, RestartWithoutDurableFileAfterAckIsAFinding) {
  int audited = -1;
  const auto findings =
      audit_durability(one_cycle(), boots_then(AuditStart{1, 0, 0, 1200}),
                       {AckRec{1, 3, 500}}, &audited);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("NO durable file"), std::string::npos)
      << findings[0];
  EXPECT_EQ(audited, 1);
}

TEST(DurabilityAuditTest, AckReceivedAfterTheKillIsNotOwed) {
  // The ack for ts 9 arrived after the SIGKILL: nothing proves the
  // persist finished before the process died.
  int audited = -1;
  const auto findings = audit_durability(
      one_cycle(), boots_then(AuditStart{1, 4, 1, 1200}),
      {AckRec{1, 4, 800}, AckRec{1, 9, 1050}}, &audited);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(audited, 1);
}

TEST(DurabilityAuditTest, VictimNeverRestartedIsNotAudited) {
  int audited = -1;
  const auto findings = audit_durability(
      {spawn_at(1, 0), kill_at(1, 1000)}, {AuditStart{1, 0, 0, 10}},
      {AckRec{1, 7, 900}}, &audited);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(audited, 0);
}

TEST(DurabilityAuditTest, CleanCycleIsAuditedWithoutFindings) {
  int audited = -1;
  const auto findings = audit_durability(
      one_cycle(), boots_then(AuditStart{1, 7, 1, 1200}),
      {AckRec{1, 5, 400}, AckRec{1, 7, 900}, AckRec{2, 8, 950}}, &audited);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(audited, 1);
}

}  // namespace
}  // namespace compreg::tools
