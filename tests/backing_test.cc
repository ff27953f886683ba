// DurableBacking: the one open/recover/commit/ship path every durable
// service goes through, and its fail-stop I/O-failure policy.
#include "src/replication/backing.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <fstream>
#include <map>
#include <string>

#include "src/replication/follower.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::TempDir;

DurableOptions StoreAt(const TempDir& dir) {
  DurableOptions options;
  options.store_dir = dir.path() + "/svc";
  return options;
}

void IgnoreRecord(const std::string&, const StoreRecord&) {}

TEST(DurableBackingTest, VolatileBackingIsANoOp) {
  DurableBacking backing("svc", DurableOptions{}, IgnoreRecord);
  EXPECT_FALSE(backing.durable());
  backing.Put("k", "v", Label::Bottom(), Label::Top());
  backing.Erase("k");
  EXPECT_EQ(backing.store(), nullptr);
  EXPECT_EQ(backing.replication(), nullptr);
}

TEST(DurableBackingTest, ReopenHandsEveryRecordToTheCallback) {
  TempDir dir;
  const Label secrecy({{Handle::FromValue(7), Level::kL3}}, Level::kStar);
  {
    DurableBacking backing("svc", StoreAt(dir), IgnoreRecord);
    ASSERT_TRUE(backing.durable());
    backing.Put("a", "1", secrecy, Label::Top());
    backing.Put("b", "2", Label::Bottom(), Label::Top());
    backing.Erase("b");
    backing.Erase("never-persisted");  // kNotFound is not an I/O failure
  }
  std::map<std::string, StoreRecord> recovered;
  DurableBacking backing("svc", StoreAt(dir),
                         [&](const std::string& key, const StoreRecord& record) {
                           recovered.emplace(key, record);
                         });
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.at("a").value, "1");
  EXPECT_TRUE(recovered.at("a").secrecy.Equals(secrecy));
}

TEST(DurableBackingDeathTest, ReplicationWithoutAStoreFailsStop) {
  DurableOptions options;
  options.replication.listen_tcp_port = 7000;
  EXPECT_DEATH(DurableBacking("svc", options, IgnoreRecord),
               "svc: replication requires a store_dir");
}

// A failed WAL append must stop the service with a message naming it and
// the Status, never return as if the mutation were logged. Run inside the
// death statement, so the store's flusher threads start in the forked
// child: the file-size limit makes the append's write() fail with EFBIG
// (SIGXFSZ ignored), which the store reports as BAD_STATE.
void PutPastTheFileSizeLimit(const TempDir& dir) {
  DurableBacking backing("svc", StoreAt(dir), IgnoreRecord);
  std::signal(SIGXFSZ, SIG_IGN);
  const rlimit limit{1024, 1024};
  ASB_ASSERT(::setrlimit(RLIMIT_FSIZE, &limit) == 0);
  backing.Put("k", std::string(4096, 'x'), Label::Bottom(), Label::Top());
}

TEST(DurableBackingDeathTest, PutPastTheFileSizeLimitFailsStop) {
  TempDir dir;
  EXPECT_DEATH(PutPastTheFileSizeLimit(dir),
               "svc durable store: put failed: BAD_STATE \\(-5\\)");
}

// A follower's replica store shares the policy: a store it cannot open
// stops it with the same message shape, never an anonymous assert.
TEST(DurableBackingDeathTest, FollowerThatCannotOpenItsStoreFailsStop) {
  TempDir dir;
  const std::string file = dir.path() + "/not-a-directory";
  std::ofstream(file) << "x";
  StoreOptions options;
  options.dir = file + "/replica";
  EXPECT_DEATH(FollowerProcess{options},
               "follower durable store: open failed: NOT_FOUND \\(-3\\)");
}

}  // namespace
}  // namespace asbestos
