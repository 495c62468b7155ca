#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "support/bitvec.hpp"
#include "support/cli.hpp"
#include "support/quantize.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace adsd {
namespace {

// ---------------------------------------------------------------- BitVec

TEST(BitVec, DefaultIsEmpty) {
  BitVec b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
}

TEST(BitVec, ConstructAllZero) {
  BitVec b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < 130; ++i) {
    EXPECT_FALSE(b.get(i));
  }
}

TEST(BitVec, ConstructAllOne) {
  BitVec b(130, true);
  EXPECT_EQ(b.count(), 130u);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(129));
}

TEST(BitVec, SetGetFlip) {
  BitVec b(100);
  b.set(63, true);
  b.set(64, true);
  EXPECT_TRUE(b.get(63));
  EXPECT_TRUE(b.get(64));
  EXPECT_FALSE(b.get(62));
  b.flip(63);
  EXPECT_FALSE(b.get(63));
  b.flip(0);
  EXPECT_TRUE(b.get(0));
  EXPECT_EQ(b.count(), 2u);
}

TEST(BitVec, FromStringRoundTrip) {
  const std::string s = "0110010111010001";
  BitVec b = BitVec::from_string(s);
  EXPECT_EQ(b.to_string(), s);
  EXPECT_EQ(b.count(), 8u);
}

TEST(BitVec, FromStringRejectsGarbage) {
  EXPECT_THROW(BitVec::from_string("01x0"), std::invalid_argument);
}

TEST(BitVec, HammingDistance) {
  BitVec a = BitVec::from_string("0101010101");
  BitVec b = BitVec::from_string("0101010110");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVec, HammingDistanceSizeMismatchThrows) {
  BitVec a(10);
  BitVec b(11);
  EXPECT_THROW((void)a.hamming_distance(b), std::invalid_argument);
}

TEST(BitVec, ComplementTwiceIsIdentity) {
  Rng rng(7);
  BitVec b(97);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.set(i, rng.next_bool());
  }
  EXPECT_EQ(b.complement().complement(), b);
  EXPECT_EQ(b.complement().count(), b.size() - b.count());
}

TEST(BitVec, ComplementClearsTailBits) {
  BitVec b(3);
  BitVec c = b.complement();
  EXPECT_EQ(c.count(), 3u);
  // Tail word must not leak set bits beyond size(): hamming distance with
  // the all-ones vector of the same size is zero.
  EXPECT_EQ(c.hamming_distance(BitVec(3, true)), 0u);
}

TEST(BitVec, PushBackAndResize) {
  BitVec b;
  for (int i = 0; i < 70; ++i) {
    b.push_back(i % 3 == 0);
  }
  EXPECT_EQ(b.size(), 70u);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(69));
  EXPECT_FALSE(b.get(1));
  b.resize(4);
  EXPECT_EQ(b.size(), 4u);
  b.resize(100);
  EXPECT_FALSE(b.get(99));
}

TEST(BitVec, ResizeDownClearsDroppedBits) {
  BitVec b(10, true);
  b.resize(5);
  b.resize(10);
  EXPECT_EQ(b.count(), 5u);
}

TEST(BitVec, EqualityAndOrdering) {
  BitVec a = BitVec::from_string("0101");
  BitVec b = BitVec::from_string("0101");
  BitVec c = BitVec::from_string("0111");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a < c || c < a);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(BitVec, HashDiscriminates) {
  BitVec a = BitVec::from_string("01010101");
  BitVec b = BitVec::from_string("01010100");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), BitVec::from_string("01010101").hash());
}

TEST(BitVec, FillResetsContent) {
  BitVec b(77, true);
  b.fill(false);
  EXPECT_EQ(b.count(), 0u);
  b.fill(true);
  EXPECT_EQ(b.count(), 77u);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    differing += a.next_u64() != b.next_u64();
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(5);
  EXPECT_THROW((void)rng.next_below(0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanRoughlyHalf) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(rng.next_double());
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.add(rng.next_gaussian());
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.variance(), 1.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(19);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, ForkDecorrelates) {
  Rng a(23);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64();
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, SpinIsPlusMinusOne) {
  Rng rng(29);
  int plus = 0;
  for (int i = 0; i < 1000; ++i) {
    const int s = rng.next_spin();
    ASSERT_TRUE(s == 1 || s == -1);
    plus += s == 1;
  }
  EXPECT_GT(plus, 400);
  EXPECT_LT(plus, 600);
}

// ----------------------------------------------------------------- Stats

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sample_variance(), 0.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(WindowedVariance, ConstantSignalHasZeroVariance) {
  WindowedVariance w(5);
  for (int i = 0; i < 20; ++i) {
    w.add(42.0);
  }
  EXPECT_TRUE(w.full());
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.mean(), 42.0);
}

TEST(WindowedVariance, WindowForgetsOldSamples) {
  WindowedVariance w(3);
  w.add(1000.0);
  w.add(5.0);
  w.add(5.0);
  w.add(5.0);  // evicts 1000
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(WindowedVariance, MatchesTwoPassOnWindow) {
  WindowedVariance w(4);
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    w.add(v);
  }
  // Population variance of {1,2,3,4} = 1.25.
  EXPECT_DOUBLE_EQ(w.variance(), 1.25);
}

TEST(WindowedVariance, NotFullBeforeCapacitySamples) {
  WindowedVariance w(10);
  for (int i = 0; i < 9; ++i) {
    w.add(1.0);
    EXPECT_FALSE(w.full());
  }
  w.add(1.0);
  EXPECT_TRUE(w.full());
}

TEST(WindowedVariance, ZeroCapacityThrows) {
  EXPECT_THROW(WindowedVariance w(0), std::invalid_argument);
}

TEST(StatsHelpers, MeanAndGeometricMean) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW((void)geometric_mean({1.0, -1.0}), std::invalid_argument);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SumMatchesSerial) {
  ThreadPool pool(8);
  std::atomic<long long> total{0};
  pool.parallel_for(1000, [&](std::size_t i) {
    total.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(total.load(), 1000LL * 999 / 2);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneItems) {
  ThreadPool pool(4);
  int count = 0;
  pool.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(50, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 50);
  }
}

TEST(ThreadPool, ChunksCoverRangeExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(333);
    pool.parallel_for_chunks(333, grain, [&](std::size_t b, std::size_t e) {
      ASSERT_LT(b, e);
      ASSERT_LE(e, std::size_t{333});
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1);
      }
    });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1) << "grain " << grain;
    }
  }
}

TEST(ThreadPool, ChunksRespectGrainSize) {
  ThreadPool pool(4);
  std::atomic<int> oversized{0};
  pool.parallel_for_chunks(100, 8, [&](std::size_t b, std::size_t e) {
    if (e - b > 8) {
      oversized.fetch_add(1);
    }
  });
  EXPECT_EQ(oversized.load(), 0);
}

TEST(ThreadPool, ChunksPropagateException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_chunks(64, 4,
                               [](std::size_t b, std::size_t) {
                                 if (b >= 32) {
                                   throw std::runtime_error("boom");
                                 }
                               }),
      std::runtime_error);
}

TEST(ThreadPool, ChunksWorkOnSingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<int> hits(50, 0);  // serial path: no atomics needed
  pool.parallel_for_chunks(50, 0, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      ++hits[i];
    }
  });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, ConfigureSharedResizesPool) {
  ThreadPool::configure_shared(3);
  EXPECT_EQ(ThreadPool::shared().thread_count(), 3u);
  std::atomic<int> n{0};
  ThreadPool::shared().parallel_for(20, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 20);
  ThreadPool::configure_shared(0);  // restore default for other tests
  EXPECT_GT(ThreadPool::shared().thread_count(), 0u);
}

TEST(ThreadPool, BackToBackCallsFromOneFrameReuseTheJobSlot) {
  // Every call places its Job at the same stack address. A participant that
  // still touched the previous Job after the caller returned would race with
  // the next call's construction (ASan/TSan report it; see CI).
  ThreadPool pool(4);
  std::size_t total = 0;
  for (int round = 0; round < 2000; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for_chunks(8, 1, [&](std::size_t b, std::size_t e) {
      sum.fetch_add(e - b);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 2000u * 8u);
}

TEST(ThreadPool, ParticipantsCappedAtThreadCountCallerIncluded) {
  // At most min(thread_count(), chunks) threads run one parallel-for, the
  // calling thread among them. Each chunk body waits (bounded) until that
  // many participants are inside, so the cap is both reached and observed.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (const std::size_t chunks : {1u, 2u, 3u, 4u, 16u}) {
      const std::size_t expected = std::min(threads, chunks);
      std::atomic<std::size_t> active{0};
      std::atomic<std::size_t> peak{0};
      std::atomic<bool> reached{false};
      std::mutex ids_mutex;
      std::vector<std::thread::id> ids;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      pool.parallel_for_chunks(chunks, 1, [&](std::size_t, std::size_t) {
        {
          std::lock_guard<std::mutex> lock(ids_mutex);
          const auto id = std::this_thread::get_id();
          if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
            ids.push_back(id);
          }
        }
        const std::size_t now = active.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        if (now >= expected) {
          reached.store(true);
        }
        while (!reached.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        active.fetch_sub(1);
      });
      EXPECT_EQ(peak.load(), expected)
          << threads << " threads, " << chunks << " chunks";
      EXPECT_EQ(ids.size(), expected)
          << threads << " threads, " << chunks << " chunks";
    }
  }
}

// ------------------------------------------------------------------- CLI

TEST(CliArgs, ParsesSeparateAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=hello", "--flag"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_string("beta", ""), "hello");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_TRUE(args.get_bool("flag", false));
}

TEST(CliArgs, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.get_bool("missing", false));
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, PositionalArguments) {
  const char* argv[] = {"prog", "one", "--x", "1", "two"};
  CliArgs args(5, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

TEST(CliArgs, FlagFollowedByOption) {
  const char* argv[] = {"prog", "--verbose", "--n", "4"};
  CliArgs args(4, argv);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("n", 0), 4);
}

TEST(CliArgs, RejectUnknownNamesTheFlag) {
  const char* argv[] = {"prog", "decompose", "--n", "9", "--telemtry",
                        "t.json"};
  CliArgs args(6, argv);
  EXPECT_NO_THROW(args.reject_unknown("decompose", {"n", "telemtry"}));
  try {
    args.reject_unknown("decompose", {"trace", "n"});
    FAIL() << "unknown option accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "decompose does not take option '--telemtry' (options: --n, "
              "--trace)");
  }
}

TEST(CliArgs, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=off", "--c=1", "--d=no"};
  CliArgs args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(CliArgs, BadBooleanThrows) {
  const char* argv[] = {"prog", "--a=maybe"};
  CliArgs args(2, argv);
  EXPECT_THROW((void)args.get_bool("a", false), std::invalid_argument);
}

TEST(CliArgs, NegativeSizeThrows) {
  const char* argv[] = {"prog", "--n=-3"};
  CliArgs args(2, argv);
  EXPECT_THROW((void)args.get_size("n", 0), std::invalid_argument);
}

// ----------------------------------------------------------------- Table

TEST(Table, AlignsAndPrintsAllRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.50"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("2.50"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Table, CsvEscapesSeparators) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// ------------------------------------------------------------- Quantizer

TEST(Quantizer, EndpointsMapToEnds) {
  Quantizer q(0.0, 1.0, 4);
  EXPECT_EQ(q.levels(), 16u);
  EXPECT_EQ(q.encode(0.0), 0u);
  EXPECT_EQ(q.encode(1.0), 15u);
  EXPECT_DOUBLE_EQ(q.decode(0), 0.0);
  EXPECT_DOUBLE_EQ(q.decode(15), 1.0);
}

TEST(Quantizer, SaturatesOutsideRange) {
  Quantizer q(0.0, 1.0, 4);
  EXPECT_EQ(q.encode(-5.0), 0u);
  EXPECT_EQ(q.encode(7.0), 15u);
}

TEST(Quantizer, RoundTripWithinHalfStep) {
  Quantizer q(-2.0, 3.0, 8);
  for (std::uint64_t u = 0; u < q.levels(); u += 5) {
    EXPECT_EQ(q.encode(q.decode(u)), u);
  }
}

TEST(Quantizer, EncodeRoundsToNearest) {
  Quantizer q(0.0, 15.0, 4);  // step = 1
  EXPECT_EQ(q.encode(7.4), 7u);
  EXPECT_EQ(q.encode(7.6), 8u);
}

TEST(Quantizer, RejectsBadArguments) {
  EXPECT_THROW(Quantizer(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Quantizer(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Quantizer(2.0, 1.0, 4), std::invalid_argument);
  Quantizer q(0.0, 1.0, 4);
  EXPECT_THROW((void)q.decode(16), std::out_of_range);
  EXPECT_THROW((void)q.encode(std::nan("")), std::invalid_argument);
}

// ----------------------------------------------------------------- Timer

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds() * 1e3 - 1e-9);
}

TEST(Deadline, UnlimitedNeverExpires) {
  Deadline d(0.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 1e20);
}

TEST(Deadline, TinyBudgetExpires) {
  Deadline d(1e-9);
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) {
    sink = sink + i;
  }
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), 0.0);
}

}  // namespace
}  // namespace adsd
