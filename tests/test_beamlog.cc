/**
 * @file
 * Tests for the beam-log writer/reader — the canonical
 * (de)serialization of CampaignRaw (paper contribution 2). The key
 * property: analyze(parse(write(raw))) is bit-identical to
 * analyze(raw), so a third party with only the log reproduces every
 * published metric.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hh"
#include "kernels/dgemm.hh"
#include "kernels/lavamd.hh"
#include "logs/beamlog.hh"
#include "metrics/criticality.hh"

namespace radcrit
{
namespace
{

class BeamLogTest : public ::testing::Test
{
  protected:
    DeviceModel device_ = makeK40();
    Dgemm dgemm_{device_, 64, 42};

    CampaignRaw
    campaign(uint64_t runs = 60)
    {
        SimConfig cfg;
        cfg.faultyRuns = runs;
        cfg.seed = 11;
        return simulateCampaign(device_, dgemm_, cfg);
    }

    static CampaignRaw
    roundTrip(const CampaignRaw &raw)
    {
        std::stringstream ss;
        writeBeamLog(raw, ss);
        return readBeamLog(ss);
    }
};

TEST_F(BeamLogTest, RoundTripPreservesRuns)
{
    CampaignRaw raw = campaign();
    CampaignRaw log = roundTrip(raw);

    EXPECT_EQ(log.deviceName, "K40");
    EXPECT_EQ(log.workloadName, "DGEMM");
    EXPECT_EQ(log.sim.seed, 11u);
    EXPECT_EQ(log.sim.faultyRuns, raw.sim.faultyRuns);
    EXPECT_DOUBLE_EQ(log.sensitiveAreaAu, raw.sensitiveAreaAu);
    ASSERT_EQ(log.runs.size(), raw.runs.size());
    for (size_t i = 0; i < raw.runs.size(); ++i) {
        EXPECT_EQ(log.runs[i].index, raw.runs[i].index);
        EXPECT_EQ(log.runs[i].outcome, raw.runs[i].outcome);
        EXPECT_EQ(log.runs[i].strike.resource,
                  raw.runs[i].strike.resource);
        EXPECT_EQ(log.runs[i].strike.manifestation,
                  raw.runs[i].strike.manifestation);
        EXPECT_DOUBLE_EQ(log.runs[i].strike.timeFraction,
                         raw.runs[i].strike.timeFraction);
    }
}

TEST_F(BeamLogTest, SerializationIsAFixedPoint)
{
    // write(parse(write(raw))) == write(raw): %.17g printing makes
    // the textual form a fixed point of the round trip.
    CampaignRaw raw = campaign();
    std::stringstream first;
    writeBeamLog(raw, first);
    std::stringstream second;
    writeBeamLog(roundTrip(raw), second);
    EXPECT_EQ(first.str(), second.str());
}

TEST_F(BeamLogTest, ReanalysisIsBitIdentical)
{
    // The headline guarantee: analysis of the reloaded log matches
    // analysis of the in-memory campaign bit for bit.
    CampaignRaw raw = campaign(100);
    CampaignRaw log = roundTrip(raw);
    AnalysisConfig acfg;
    CampaignResult a = analyzeCampaign(raw, acfg);
    CampaignResult b = analyzeCampaign(log, acfg);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome);
        EXPECT_EQ(a.runs[i].crit.numIncorrect,
                  b.runs[i].crit.numIncorrect);
        EXPECT_EQ(a.runs[i].crit.meanRelErrPct,
                  b.runs[i].crit.meanRelErrPct);
        EXPECT_EQ(a.runs[i].crit.pattern, b.runs[i].crit.pattern);
        EXPECT_EQ(a.runs[i].crit.executionFiltered,
                  b.runs[i].crit.executionFiltered);
    }
    EXPECT_EQ(a.fitTotalAu(true), b.fitTotalAu(true));
    EXPECT_EQ(a.fitTotalAu(false), b.fitTotalAu(false));
}

TEST_F(BeamLogTest, LoggedRecordsMatchCampaignMetrics)
{
    // Stored mismatch records carry the analysis-independent
    // corruption counts verbatim.
    CampaignRaw raw = campaign();
    CampaignRaw log = roundTrip(raw);
    for (size_t i = 0; i < raw.runs.size(); ++i) {
        if (raw.runs[i].outcome != Outcome::Sdc)
            continue;
        EXPECT_EQ(log.runs[i].record.numIncorrect(),
                  raw.runs[i].record.numIncorrect());
        for (const auto &e : log.runs[i].record.elements)
            EXPECT_TRUE(std::isfinite(e.expected));
    }
    EXPECT_EQ(log.count(Outcome::Sdc), raw.count(Outcome::Sdc));
    EXPECT_EQ(log.count(Outcome::Crash),
              raw.count(Outcome::Crash));
}

TEST_F(BeamLogTest, DifferentThresholdsDiffer)
{
    // The whole point of publishing logs: users can apply their
    // own filters, without re-running a kernel.
    CampaignRaw log = roundTrip(campaign(100));
    AnalysisConfig strict_cfg;
    strict_cfg.filterThresholdPct = 0.0;
    AnalysisConfig loose_cfg;
    loose_cfg.filterThresholdPct = 50.0;
    CampaignResult strict = analyzeCampaign(log, strict_cfg);
    CampaignResult loose = analyzeCampaign(log, loose_cfg);
    uint64_t strict_filtered = 0, loose_filtered = 0;
    for (size_t i = 0; i < strict.runs.size(); ++i) {
        strict_filtered += strict.runs[i].crit.executionFiltered;
        loose_filtered += loose.runs[i].crit.executionFiltered;
    }
    EXPECT_EQ(strict_filtered, 0u);
    EXPECT_LE(strict_filtered, loose_filtered);
    EXPECT_GE(strict.fitTotalAu(true), loose.fitTotalAu(true));
}

TEST(BeamLog3dTest, LavaMdRoundTripKeepsBoxCoordinates)
{
    // 3D records (LavaMD box space, duplicate coordinates for
    // particles sharing a box) must survive the log round trip.
    DeviceModel device = makeXeonPhi();
    LavaMd lava(device, 5, 42, 2, 4, 11);
    SimConfig cfg;
    cfg.faultyRuns = 60;
    cfg.seed = 23;
    CampaignRaw raw = simulateCampaign(device, lava, cfg);
    CampaignResult res = analyzeCampaign(raw, AnalysisConfig{});

    std::stringstream ss;
    writeBeamLog(raw, ss);
    CampaignRaw log = readBeamLog(ss);
    ASSERT_EQ(log.runs.size(), raw.runs.size());
    bool saw_sdc = false;
    for (size_t i = 0; i < raw.runs.size(); ++i) {
        if (raw.runs[i].outcome != Outcome::Sdc)
            continue;
        saw_sdc = true;
        const SdcRecord &rec = log.runs[i].record;
        EXPECT_EQ(rec.dims, 3);
        EXPECT_EQ(rec.extent[2], 5);
        EXPECT_EQ(rec.numIncorrect(),
                  res.runs[i].crit.numIncorrect);
        // Re-analysis of the reloaded record reproduces the
        // campaign's locality classification.
        CriticalityReport crit = analyzeCriticality(rec);
        EXPECT_EQ(crit.pattern, res.runs[i].crit.pattern);
        EXPECT_NEAR(crit.meanRelErrPct,
                    res.runs[i].crit.meanRelErrPct,
                    1e-9 * (1.0 + crit.meanRelErrPct));
    }
    EXPECT_TRUE(saw_sdc);
}

TEST(BeamLogParseDeathTest, MissingHeaderFatal)
{
    std::stringstream ss("#RUN idx=0 outcome=Masked "
                         "resource=RegisterFile "
                         "manifestation=BitFlipValue t=0.5 "
                         "burst=1 entropy=1\n#END idx=0\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "no #HEADER");
}

TEST(BeamLogParseDeathTest, VersionMismatchFatal)
{
    std::stringstream ss(
        "#HEADER version=1 device=K40 workload=DGEMM input=x "
        "seed=1 runs=0 sensitive_area_au=1\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "unsupported beam-log version 1");
}

TEST(BeamLogParseDeathTest, TruncatedRunFatal)
{
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=1 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=SDC resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(BeamLogParseDeathTest, RunCountMismatchFatal)
{
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=2 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=Masked resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
        "#END idx=0\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "declares 2 runs but contains 1");
}

TEST(BeamLogParseDeathTest, UnknownKeywordFatal)
{
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=0 sensitive_area_au=1\n"
        "#WHAT is=this\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "unknown beam-log keyword");
}

TEST(BeamLogParseDeathTest, MalformedFieldFatal)
{
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=1 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=Nonsense resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
        "#END idx=0\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "unknown outcome");
}

TEST(BeamLogParseDeathTest, MidRecordEofPinsRunIndex)
{
    // The exact diagnostic matters: the campaign store's
    // quarantine reason and tools parsing stderr both key on it.
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=2 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=Masked resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
        "#END idx=0\n"
        "#RUN idx=1 outcome=SDC resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
        "#DIMS dims=2 x=4 y=4 z=1\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "beam log truncated inside run 1");
}

TEST(BeamLogTolerantRead, NulloptCarriesTheFatalDiagnostic)
{
    // tryReadBeamLog() is the store's recovery path: same parse,
    // same message, no process exit.
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=1 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=SDC resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n");
    std::string error;
    EXPECT_FALSE(tryReadBeamLog(ss, &error).has_value());
    EXPECT_EQ(error, "beam log truncated inside run 0");
}

TEST(BeamLogTolerantRead, GoodInputParsesLikeStrictRead)
{
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 64, 42);
    SimConfig cfg;
    cfg.faultyRuns = 20;
    cfg.seed = 11;
    CampaignRaw raw = simulateCampaign(device, dgemm, cfg);
    std::stringstream ss;
    writeBeamLog(raw, ss);
    std::string error;
    std::optional<CampaignRaw> log = tryReadBeamLog(ss, &error);
    ASSERT_TRUE(log.has_value()) << error;
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(log->runs.size(), raw.runs.size());
}

TEST(BeamLogTolerantRead, UnreadableFileReportsOpenFailure)
{
    std::string error;
    EXPECT_FALSE(
        tryReadBeamLogFile("/nonexistent/dir/x.beamlog", &error)
            .has_value());
    EXPECT_NE(error.find("cannot open beam log"),
              std::string::npos);
}

/** A two-run log: run 0 an SDC with three #ERR lines. */
const char *const kTwoRunLog =
    "#HEADER version=2 device=K40 workload=DGEMM input=x "
    "seed=1 runs=2 sensitive_area_au=1\n"
    "#RUN idx=0 outcome=SDC resource=RegisterFile "
    "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
    "#DIMS dims=2 x=4 y=4 z=1\n"
    "#ERR x=1 y=2 z=0 read=1.5 expected=2\n"
    "#ERR x=2 y=2 z=0 read=2.5 expected=3\n"
    "#ERR x=3 y=2 z=0 read=3.5 expected=4\n"
    "#END idx=0\n"
    "#RUN idx=1 outcome=Masked resource=RegisterFile "
    "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
    "#END idx=1\n";

std::string
serialized(const CampaignRaw &raw)
{
    std::stringstream ss;
    writeBeamLog(raw, ss);
    return ss.str();
}

/**
 * Parse `text` split into `pieceLines`-line pieces, last piece
 * first, and require the outcome of the streaming tryReadBeamLog():
 * the same campaign bytes, or the same diagnostic.
 */
void
expectSplitMatchesStreamed(const std::string &text,
                           uint64_t pieceLines)
{
    std::stringstream ss(text);
    std::string streamed_error;
    std::optional<CampaignRaw> streamed =
        tryReadBeamLog(ss, &streamed_error);

    BeamLogText log(text, pieceLines);
    for (size_t p = log.pieces(); p-- > 0;)
        log.parsePiece(p);
    std::string split_error;
    std::optional<CampaignRaw> split = log.take(&split_error);

    ASSERT_EQ(split.has_value(), streamed.has_value())
        << split_error << " / " << streamed_error;
    if (streamed)
        EXPECT_EQ(serialized(*split), serialized(*streamed));
    else
        EXPECT_EQ(split_error, streamed_error);
}

TEST_F(BeamLogTest, SplitParseMatchesTheStreamedRead)
{
    std::stringstream ss;
    writeBeamLog(campaign(), ss);
    std::string text = ss.str();
    for (uint64_t lines : {1, 2, 7, 2048})
        expectSplitMatchesStreamed(text, lines);
    // Two-line pieces cut SDC runs' #ERR lines into several.
    EXPECT_GT(BeamLogText(text, 2).pieces(),
              BeamLogText(text, 2048).pieces());
}

TEST_F(BeamLogTest, PiecesParseConcurrently)
{
    std::stringstream ss;
    writeBeamLog(campaign(), ss);
    std::string text = ss.str();

    BeamLogText log(text, 1);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&log, t] {
            for (size_t p = t; p < log.pieces(); p += 4)
                log.parsePiece(p);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    std::optional<CampaignRaw> back = log.take();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(serialized(*back), text);
}

TEST(BeamLogText, PiecesFollowPieceLinesAndRuns)
{
    BeamLogText log(kTwoRunLog, 2);
    EXPECT_EQ(log.pieces(), 2u);
    for (size_t p = 0; p < log.pieces(); ++p)
        log.parsePiece(p);
    std::optional<CampaignRaw> raw = log.take();
    ASSERT_TRUE(raw.has_value());
    ASSERT_EQ(raw->runs.size(), 2u);
    const auto &elements = raw->runs[0].record.elements;
    ASSERT_EQ(elements.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(elements[i].coord[0], static_cast<int64_t>(i + 1));
        EXPECT_EQ(elements[i].read, 1.5 + static_cast<double>(i));
    }
    EXPECT_TRUE(raw->runs[1].record.elements.empty());
}

TEST(BeamLogText, OddlySpacedErrLinesKeepFileOrder)
{
    // A leading blank, an empty line inside the block and a tab
    // after the keyword: every #ERR line lands in file order.
    std::string text = kTwoRunLog;
    text.replace(text.find("#ERR x=2"), 8, "  #ERR x=2");
    text.replace(text.find("#ERR x=3"), 8, "\n#ERR\tx=3");
    BeamLogText log(text, 1);
    for (size_t p = 0; p < log.pieces(); ++p)
        log.parsePiece(p);
    std::string error;
    std::optional<CampaignRaw> raw = log.take(&error);
    ASSERT_TRUE(raw.has_value()) << error;
    const auto &elements = raw->runs[0].record.elements;
    ASSERT_EQ(elements.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(elements[i].coord[0], static_cast<int64_t>(i + 1));
    expectSplitMatchesStreamed(text, 1);
}

TEST(BeamLogText, FirstMalformedLineInFileOrderIsReported)
{
    // A malformed #ERR line outranks a later malformed per-run
    // line and a truncation at the end of the log, whichever piece
    // or pass finds it.
    std::string bad_err = kTwoRunLog;
    bad_err.replace(bad_err.find("#ERR x=2 y=2 "), 13, "#ERR x=2 ");
    std::string later_bad = bad_err;
    later_bad.replace(later_bad.find("#END idx=1"), 4, "#WHAT");
    std::string truncated =
        bad_err.substr(0, bad_err.find("#END idx=0"));
    std::string only_later = kTwoRunLog;
    only_later.replace(only_later.find("#END idx=1"), 4, "#WHAT");
    std::string stray_err = kTwoRunLog;
    stray_err.insert(stray_err.find("#RUN idx=1"),
                     "#ERR x=9 y=9 z=0 read=1 expected=2\n");

    for (const std::string &text : {bad_err, later_bad, truncated}) {
        BeamLogText log(text, 1);
        for (size_t p = 0; p < log.pieces(); ++p)
            log.parsePiece(p);
        std::string error;
        EXPECT_FALSE(log.take(&error).has_value());
        EXPECT_NE(error.find("missing log field 'y'"),
                  std::string::npos)
            << error;
    }
    for (const std::string &text :
         {bad_err, later_bad, truncated, only_later, stray_err}) {
        for (uint64_t lines : {1, 2, 2048})
            expectSplitMatchesStreamed(text, lines);
    }
}

} // anonymous namespace
} // namespace radcrit
