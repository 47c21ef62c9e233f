#include "obs/trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/database.h"
#include "nvm/nvm_env.h"

namespace hyrise_nv::obs {
namespace {

TEST(SpanTracerTest, NestedSpansBuildTree) {
  SpanTracer tracer("root");
  tracer.Begin("a");
  tracer.Begin("a1");
  const double a1 = tracer.End();
  EXPECT_GE(a1, 0.0);
  tracer.End();
  tracer.Begin("b");
  tracer.End();
  const SpanNode tree = tracer.Finish();
  EXPECT_EQ(tree.name, "root");
  ASSERT_EQ(tree.children.size(), 2u);
  EXPECT_EQ(tree.children[0].name, "a");
  ASSERT_EQ(tree.children[0].children.size(), 1u);
  EXPECT_EQ(tree.children[0].children[0].name, "a1");
  EXPECT_EQ(tree.children[1].name, "b");
  // Parents cover their children.
  EXPECT_GE(tree.seconds, tree.children[0].seconds);
  EXPECT_GE(tree.children[0].seconds, tree.children[0].children[0].seconds);
}

TEST(SpanTracerTest, FinishClosesOpenSpans) {
  SpanTracer tracer("root");
  tracer.Begin("left_open");
  const SpanNode tree = tracer.Finish();
  ASSERT_EQ(tree.children.size(), 1u);
  EXPECT_EQ(tree.children[0].name, "left_open");
}

TEST(SpanTracerTest, AttachGraftsPrebuiltSubtree) {
  SpanNode subtree;
  subtree.name = "inner";
  subtree.seconds = 1.5;
  subtree.children.push_back({"leaf", 0.5, {}});

  SpanTracer tracer("root");
  tracer.Begin("outer");
  tracer.Attach(subtree);
  tracer.End();
  const SpanNode tree = tracer.Finish();
  const SpanNode* inner = tree.Find("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_DOUBLE_EQ(inner->seconds, 1.5);  // recorded timing preserved
  ASSERT_NE(tree.Find("leaf"), nullptr);
}

TEST(SpanTracerTest, ScopeEndsOnDestruction) {
  SpanTracer tracer("root");
  {
    auto scope = tracer.Span("scoped");
  }
  const SpanNode tree = tracer.Finish();
  ASSERT_EQ(tree.children.size(), 1u);
  EXPECT_EQ(tree.children[0].name, "scoped");
}

TEST(SpanNodeTest, FindSearchesDepthFirst) {
  SpanNode root{"root", 1.0, {{"a", 0.4, {{"deep", 0.1, {}}}}, {"b", 0.2, {}}}};
  EXPECT_EQ(root.Find("root"), &root);
  ASSERT_NE(root.Find("deep"), nullptr);
  EXPECT_EQ(root.Find("deep")->seconds, 0.1);
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(SpanNodeTest, RenderAndJson) {
  SpanNode root{"root", 0.002, {{"child", 0.001, {}}}};
  const std::string text = root.Render();
  EXPECT_NE(text.find("root"), std::string::npos);
  EXPECT_NE(text.find("child"), std::string::npos);
  const std::string json = root.ToJson();
  EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// --- Recovery traces: every Open path must yield a complete span tree ---

class RecoveryTraceTest : public ::testing::Test {
 protected:
  core::DatabaseOptions MakeOptions(core::DurabilityMode mode) {
    core::DatabaseOptions options;
    options.mode = mode;
    options.region_size = 64 << 20;
    dir_ = nvm::TempPath("obs_trace_test");
    std::filesystem::create_directories(dir_);
    options.data_dir = dir_;
    return options;
  }
  void TearDown() override {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  static void SeedRows(core::Database& db) {
    auto schema = *storage::Schema::Make(
        {{"k", storage::DataType::kInt64}});
    auto table = db.CreateTable("t", schema);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.InsertAutoCommit(*table, {storage::Value(i)}).ok());
    }
  }

  std::string dir_;
};

std::vector<std::string> ChildNames(const SpanNode* node) {
  std::vector<std::string> names;
  if (node == nullptr) return names;
  for (const SpanNode& child : node->children) names.push_back(child.name);
  return names;
}

using Names = std::vector<std::string>;

TEST_F(RecoveryTraceTest, NvmOpenYieldsCompleteSpanTree) {
  auto options = MakeOptions(core::DurabilityMode::kNvm);
  {
    auto db = core::Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    SeedRows(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto reopened = core::Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const core::RecoveryReport& report = (*reopened)->last_recovery_report();
  EXPECT_EQ(report.trace.name, "open");
  for (const char* span : {"instant_restart", "map", "fixup",
                           "rollforward_commits", "attach",
                           "attach_index_sets"}) {
    EXPECT_NE(report.trace.Find(span), nullptr) << "missing span " << span;
  }
  // `map` names every step of the open.
  EXPECT_EQ(ChildNames(report.trace.Find("map")),
            (Names{"open_region", "recover_allocator",
                   "attach_flight_recorder"}));
  EXPECT_DOUBLE_EQ(report.total_seconds, report.trace.seconds);
  EXPECT_DOUBLE_EQ(report.nvm.map_seconds,
                   report.trace.Find("map")->seconds);
  EXPECT_FALSE(report.RenderText().empty());
  EXPECT_NE(report.ToJson().find("\"trace\":"), std::string::npos);
}

TEST_F(RecoveryTraceTest, NvmDeepVerifyOpenHasVerifySpan) {
  auto options = MakeOptions(core::DurabilityMode::kNvm);
  {
    auto db = core::Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    SeedRows(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  options.open_mode = core::OpenMode::kVerifyDeep;
  auto reopened = core::Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const SpanNode& trace = (*reopened)->last_recovery_report().trace;
  EXPECT_NE(trace.Find("verify"), nullptr);
  EXPECT_NE(trace.Find("instant_restart"), nullptr);
  // The image stays untouched until it verifies: the allocator and the
  // flight recorder come after `verify`.
  EXPECT_EQ(ChildNames(trace.Find("map")), (Names{"open_region"}));
  EXPECT_EQ(ChildNames(trace.Find("instant_restart")),
            (Names{"map", "verify", "recover_allocator",
                   "attach_flight_recorder", "fixup", "attach"}));
}

TEST_F(RecoveryTraceTest, CrashAndRecoverYieldsSpanTree) {
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = 64 << 20;
  options.tracking = nvm::TrackingMode::kShadow;
  auto db = core::Database::Create(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  SeedRows(**db);
  auto recovered = core::Database::CrashAndRecover(std::move(*db));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const core::RecoveryReport& report =
      (*recovered)->last_recovery_report();
  EXPECT_EQ(report.trace.name, "open");
  for (const char* span :
       {"instant_restart", "map", "fixup", "attach_index_sets"}) {
    EXPECT_NE(report.trace.Find(span), nullptr) << "missing span " << span;
  }
  EXPECT_EQ(ChildNames(report.trace.Find("map")),
            (Names{"recover_allocator", "attach_flight_recorder"}));
  EXPECT_DOUBLE_EQ(report.total_seconds, report.trace.seconds);
}

TEST_F(RecoveryTraceTest, WalOpenYieldsLogRecoverySpanTree) {
  auto options = MakeOptions(core::DurabilityMode::kWalValue);
  {
    auto db = core::Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    SeedRows(**db);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto reopened = core::Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const core::RecoveryReport& report = (*reopened)->last_recovery_report();
  EXPECT_EQ(report.trace.name, "open");
  for (const char* span :
       {"log_recovery", "checkpoint_load", "replay", "scan_commits",
        "apply", "index_rebuild", "attach_index_sets"}) {
    EXPECT_NE(report.trace.Find(span), nullptr) << "missing span " << span;
  }
  EXPECT_DOUBLE_EQ(report.total_seconds, report.trace.seconds);
  EXPECT_DOUBLE_EQ(report.log.replay_seconds,
                   report.trace.Find("replay")->seconds);
  // The pass appends every row with its values: nothing is restored
  // after it.
  EXPECT_EQ(ChildNames(report.trace.Find("replay")),
            (Names{"scan_commits", "apply", "reserve"}));
}

// An on-demand open is the same pass under "analysis"; its index build
// runs in the background, outside the open's trace.
TEST_F(RecoveryTraceTest, WalOnDemandOpenLeavesIndexBuildToBackground) {
  auto options = MakeOptions(core::DurabilityMode::kWalValue);
  {
    auto db = core::Database::Create(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    SeedRows(**db);
    ASSERT_TRUE((*db)->CreateIndex("t", 0).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  options.log_recovery = core::LogRecoveryPolicy::kServeOnDemand;
  auto reopened = core::Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const core::RecoveryReport& report = (*reopened)->last_recovery_report();
  EXPECT_TRUE(report.log.on_demand);
  EXPECT_EQ(report.log.replayed_rows, 10u);
  EXPECT_EQ(ChildNames(report.trace.Find("log_recovery")),
            (Names{"checkpoint_load", "analysis", "attach_index_sets"}));
  EXPECT_EQ(ChildNames(report.trace.Find("analysis")),
            (Names{"scan_commits", "apply", "reserve"}));
  EXPECT_TRUE((*reopened)->WaitUntilRecovered(30'000).ok());
}

}  // namespace
}  // namespace hyrise_nv::obs
