#include "logs/beamlog.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string_view>

#include "common/logging.hh"
#include "exec/chaos.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{

namespace
{

/** Percent-encode spaces and '%' so values stay single tokens. */
std::string
encodeValue(const std::string &value)
{
    std::string out;
    for (char c : value) {
        if (c == ' ')
            out += "%20";
        else if (c == '%')
            out += "%25";
        else
            out += c;
    }
    return out;
}

/** Inverse of encodeValue(). */
std::string
decodeValue(const std::string &value)
{
    std::string out;
    for (size_t i = 0; i < value.size(); ++i) {
        if (value[i] == '%' && i + 2 < value.size()) {
            if (value.compare(i, 3, "%20") == 0) {
                out += ' ';
                i += 2;
                continue;
            }
            if (value.compare(i, 3, "%25") == 0) {
                out += '%';
                i += 2;
                continue;
            }
        }
        out += value[i];
    }
    return out;
}

/** Parse "key=value" tokens from one log line after the keyword. */
std::map<std::string, std::string>
parseFields(std::istringstream &iss, const std::string &line)
{
    std::map<std::string, std::string> fields;
    std::string token;
    while (iss >> token) {
        auto eq = token.find('=');
        if (eq == std::string::npos)
            throw BeamLogParseError(strprintf(
                "malformed log token '%s' in line: %s",
                token.c_str(), line.c_str()));
        fields[token.substr(0, eq)] =
            decodeValue(token.substr(eq + 1));
    }
    return fields;
}

const std::string &
need(const std::map<std::string, std::string> &fields,
     const char *key, const std::string &line)
{
    auto it = fields.find(key);
    if (it == fields.end())
        throw BeamLogParseError(strprintf(
            "missing log field '%s' in line: %s", key,
            line.c_str()));
    return it->second;
}

double
toDouble(const std::string &s, const std::string &line)
{
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str())
        throw BeamLogParseError(strprintf(
            "bad number '%s' in line: %s", s.c_str(),
            line.c_str()));
    return v;
}

int64_t
toInt(const std::string &s, const std::string &line)
{
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == s.c_str())
        throw BeamLogParseError(strprintf(
            "bad integer '%s' in line: %s", s.c_str(),
            line.c_str()));
    return v;
}

/** Full-range uint64 parse (seeds routinely exceed INT64_MAX). */
uint64_t
toUint(const std::string &s, const std::string &line)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str())
        throw BeamLogParseError(strprintf(
            "bad integer '%s' in line: %s", s.c_str(),
            line.c_str()));
    return v;
}

Outcome
outcomeFromName(const std::string &name, const std::string &line)
{
    for (size_t i = 0; i < numOutcomes; ++i) {
        auto o = static_cast<Outcome>(i);
        if (name == outcomeName(o))
            return o;
    }
    throw BeamLogParseError(strprintf(
        "unknown outcome '%s' in line: %s", name.c_str(),
        line.c_str()));
}

Manifestation
manifestationFromName(const std::string &name,
                      const std::string &line)
{
    for (size_t i = 0; i < numManifestations; ++i) {
        auto m = static_cast<Manifestation>(i);
        if (name == manifestationName(m))
            return m;
    }
    throw BeamLogParseError(strprintf(
        "unknown manifestation '%s' in line: %s", name.c_str(),
        line.c_str()));
}

/** Serialize one run's #RUN..#END record (shared by campaign logs
 * and checkpoint shards). */
void
writeRunRecord(std::ostream &os, const RawRun &run, uint64_t idx)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  run.strike.timeFraction);
    os << "#RUN idx=" << idx
       << " outcome=" << outcomeName(run.outcome)
       << " resource=" << resourceKindName(run.strike.resource)
       << " manifestation="
       << manifestationName(run.strike.manifestation)
       << " t=" << buf
       << " burst=" << run.strike.burstBits
       << " entropy=" << run.strike.entropy << '\n';
    if (run.outcome == Outcome::Sdc) {
        const SdcRecord &rec = run.record;
        os << "#DIMS dims=" << rec.dims
           << " x=" << rec.extent[0]
           << " y=" << rec.extent[1]
           << " z=" << rec.extent[2] << '\n';
        for (const auto &e : rec.elements) {
            os << "#ERR x=" << e.coord[0]
               << " y=" << e.coord[1]
               << " z=" << e.coord[2];
            std::snprintf(buf, sizeof(buf), "%.17g", e.read);
            os << " read=" << buf;
            std::snprintf(buf, sizeof(buf), "%.17g", e.expected);
            os << " expected=" << buf << '\n';
        }
    }
    os << "#END idx=" << idx << '\n';
}

/** Parse the fields of one #ERR line (after its keyword). */
CorruptedElement
parseErrFields(std::istringstream &iss, const std::string &line)
{
    auto fields = parseFields(iss, line);
    CorruptedElement e;
    e.coord = {toInt(need(fields, "x", line), line),
               toInt(need(fields, "y", line), line),
               toInt(need(fields, "z", line), line)};
    e.read = toDouble(need(fields, "read", line), line);
    e.expected = toDouble(need(fields, "expected", line), line);
    return e;
}

/** @return whether a log line's first token is #ERR. */
bool
isErrLine(std::string_view line)
{
    return line.starts_with("#ERR") &&
        (line.size() == 4 ||
         std::isspace(static_cast<unsigned char>(line[4])));
}

/**
 * Incremental parser over the shared #RUN/#DIMS/#ERR/#END record
 * grammar. Throws BeamLogParseError on malformed lines; a run is
 * handed back when its #END arrives.
 */
struct RecordParser
{
    RawRun current;
    bool inRun = false;

    std::optional<RawRun>
    consume(const std::string &keyword, std::istringstream &iss,
            const std::string &line)
    {
        if (keyword == "#RUN") {
            if (inRun)
                throw BeamLogParseError(strprintf(
                    "nested #RUN in beam log: %s", line.c_str()));
            auto fields = parseFields(iss, line);
            current = RawRun{};
            current.index = static_cast<uint64_t>(
                toInt(need(fields, "idx", line), line));
            current.outcome = outcomeFromName(
                need(fields, "outcome", line), line);
            current.strike.resource = resourceKindFromName(
                need(fields, "resource", line));
            current.strike.manifestation = manifestationFromName(
                need(fields, "manifestation", line), line);
            current.strike.timeFraction =
                toDouble(need(fields, "t", line), line);
            current.strike.burstBits = static_cast<uint32_t>(
                toInt(need(fields, "burst", line), line));
            current.strike.entropy = static_cast<uint64_t>(
                std::strtoull(need(fields, "entropy", line)
                              .c_str(), nullptr, 10));
            inRun = true;
            return std::nullopt;
        }
        if (keyword == "#DIMS") {
            if (!inRun)
                throw BeamLogParseError(strprintf(
                    "#DIMS outside a run: %s", line.c_str()));
            auto fields = parseFields(iss, line);
            current.record.dims = static_cast<int>(
                toInt(need(fields, "dims", line), line));
            current.record.extent = {
                toInt(need(fields, "x", line), line),
                toInt(need(fields, "y", line), line),
                toInt(need(fields, "z", line), line)};
            return std::nullopt;
        }
        if (keyword == "#ERR") {
            if (!inRun)
                throw BeamLogParseError(strprintf(
                    "#ERR outside a run: %s", line.c_str()));
            current.record.elements.push_back(
                parseErrFields(iss, line));
            return std::nullopt;
        }
        if (keyword == "#END") {
            if (!inRun)
                throw BeamLogParseError(strprintf(
                    "#END without #RUN: %s", line.c_str()));
            inRun = false;
            return std::move(current);
        }
        throw BeamLogParseError(strprintf(
            "unknown beam-log keyword '%s'", keyword.c_str()));
    }
};

/** Parsed #HEADER fields (shared by the whole-log parser and the
 * incremental reader). */
struct HeaderFields
{
    std::string device;
    std::string workload;
    std::string input;
    uint64_t seed = 0;
    uint64_t runs = 0;
    double sensitiveAreaAu = 0.0;
};

HeaderFields
parseHeaderLine(std::istringstream &iss, const std::string &line)
{
    auto fields = parseFields(iss, line);
    int64_t version = toInt(need(fields, "version", line), line);
    if (version != beamLogVersion)
        throw BeamLogParseError(strprintf(
            "unsupported beam-log version %lld (expected %d)",
            static_cast<long long>(version), beamLogVersion));
    HeaderFields header;
    header.device = need(fields, "device", line);
    header.workload = need(fields, "workload", line);
    header.input = need(fields, "input", line);
    header.seed = toUint(need(fields, "seed", line), line);
    header.runs = toUint(need(fields, "runs", line), line);
    header.sensitiveAreaAu =
        toDouble(need(fields, "sensitive_area_au", line), line);
    return header;
}

/** Copy a parsed #HEADER into the campaign it opens. */
void
applyHeader(CampaignRaw &raw, const HeaderFields &header)
{
    raw.deviceName = header.device;
    raw.workloadName = header.workload;
    raw.inputLabel = header.input;
    raw.sim.seed = header.seed;
    raw.sim.faultyRuns = header.runs;
    raw.sensitiveAreaAu = header.sensitiveAreaAu;
}

/**
 * The end-of-log checks of a whole-campaign parse; throws
 * BeamLogParseError on a log truncated inside a run, one without a
 * #HEADER, or one whose run count contradicts its header.
 */
void
checkComplete(const RecordParser &records, bool have_header,
              uint64_t declared_runs, uint64_t runs)
{
    if (records.inRun)
        throw BeamLogParseError(strprintf(
            "beam log truncated inside run %llu",
            static_cast<unsigned long long>(
                records.current.index)));
    if (!have_header)
        throw BeamLogParseError("beam log has no #HEADER");
    if (runs != declared_runs)
        throw BeamLogParseError(strprintf(
            "beam log declares %llu runs but contains %llu",
            static_cast<unsigned long long>(declared_runs),
            static_cast<unsigned long long>(runs)));
}

/** Parse core of readBeamLog(); throws BeamLogParseError. */
CampaignRaw
parseBeamLog(std::istream &is)
{
    CampaignRaw raw;
    std::string line;
    RecordParser records;
    uint64_t declared_runs = 0;
    bool have_header = false;

    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream iss(line);
        std::string keyword;
        iss >> keyword;
        if (keyword == "#HEADER") {
            HeaderFields header = parseHeaderLine(iss, line);
            applyHeader(raw, header);
            declared_runs = header.runs;
            have_header = true;
        } else if (auto run = records.consume(keyword, iss,
                                              line)) {
            raw.runs.push_back(std::move(*run));
        }
    }
    checkComplete(records, have_header, declared_runs,
                  raw.runs.size());
    return raw;
}

} // anonymous namespace

BeamLogText::BeamLogText(std::string text, uint64_t pieceLines)
    : text_(std::move(text))
{
    pieceLines = std::max<uint64_t>(pieceLines, 1);
    RecordParser records;
    uint64_t declared_runs = 0;
    bool have_header = false;
    // Lines in the last piece, while it can still grow: consecutive
    // #ERR lines of the open run.
    uint64_t piece_lines = 0;

    size_t pos = 0;
    while (pos < text_.size()) {
        size_t end = std::min(text_.find('\n', pos), text_.size());
        std::string_view view(text_.data() + pos, end - pos);
        if (records.inRun && isErrLine(view)) {
            if (piece_lines == 0 || piece_lines == pieceLines) {
                pieces_.push_back(
                    {raw_.runs.size(),
                     records.current.record.elements.size(), pos,
                     end, std::nullopt});
                piece_lines = 0;
            }
            pieces_.back().end = end;
            ++piece_lines;
            records.current.record.elements.emplace_back();
            pos = end + 1;
            continue;
        }
        piece_lines = 0;
        if (!view.empty()) {
            std::string line(view);
            try {
                std::istringstream iss(line);
                std::string keyword;
                iss >> keyword;
                if (keyword == "#HEADER") {
                    HeaderFields header = parseHeaderLine(iss, line);
                    applyHeader(raw_, header);
                    declared_runs = header.runs;
                    have_header = true;
                } else if (auto run = records.consume(keyword, iss,
                                                      line)) {
                    raw_.runs.push_back(std::move(*run));
                }
            } catch (const BeamLogParseError &e) {
                failure_ = Failure{pos, e.what()};
            }
            if (failure_)
                break;
        }
        pos = end + 1;
    }

    if (!failure_) {
        try {
            checkComplete(records, have_header, declared_runs,
                          raw_.runs.size());
        } catch (const BeamLogParseError &e) {
            failure_ = Failure{text_.size(), e.what()};
        }
    }
    // A run still open here (truncated log, or the pass stopped at
    // a malformed line) keeps its element slots, so its pieces
    // still parse: a malformed #ERR line earlier in the file is the
    // error to report.
    if (records.inRun)
        raw_.runs.push_back(std::move(records.current));
}

std::unique_ptr<BeamLogText>
BeamLogText::open(const std::string &path, uint64_t pieceLines)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
    if (size < 0)
        return nullptr;
    std::string text(static_cast<size_t>(size), '\0');
    in.seekg(0);
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    // A short read (the file shrank under us) leaves a log the
    // parse rejects, like any torn entry.
    text.resize(static_cast<size_t>(in.gcount()));
    return std::make_unique<BeamLogText>(std::move(text),
                                         pieceLines);
}

void
BeamLogText::parsePiece(size_t p)
{
    Piece &piece = pieces_[p];
    std::vector<CorruptedElement> &elements =
        raw_.runs[piece.run].record.elements;
    size_t slot = piece.firstElement;
    for (size_t pos = piece.begin; pos < piece.end;) {
        size_t end = std::min(text_.find('\n', pos), piece.end);
        std::string line(text_, pos, end - pos);
        try {
            std::istringstream iss(line);
            std::string keyword;
            iss >> keyword;
            elements[slot++] = parseErrFields(iss, line);
        } catch (const BeamLogParseError &e) {
            piece.failure = Failure{pos, e.what()};
            return;
        }
        pos = end + 1;
    }
}

std::optional<CampaignRaw>
BeamLogText::take(std::string *error)
{
    const Failure *first = failure_ ? &*failure_ : nullptr;
    for (const Piece &piece : pieces_) {
        if (piece.failure &&
            (!first || piece.failure->offset < first->offset))
            first = &*piece.failure;
    }
    if (first) {
        if (error)
            *error = first->message;
        return std::nullopt;
    }
    return std::move(raw_);
}

namespace
{

std::string
shardHeader(const CampaignRaw &raw)
{
    std::ostringstream os;
    os << "#SHARD version=" << beamLogVersion
       << " device=" << encodeValue(raw.deviceName)
       << " workload=" << encodeValue(raw.workloadName)
       << " input=" << encodeValue(raw.inputLabel)
       << " seed=" << raw.sim.seed
       << " runs=" << raw.sim.faultyRuns << '\n';
    return os.str();
}

} // anonymous namespace

void
BeamLogWriter::header(const std::string &device,
                      const std::string &workload,
                      const std::string &input, uint64_t seed,
                      uint64_t runs, double sensitive_area_au)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", sensitive_area_au);
    *os_ << "#HEADER version=" << beamLogVersion
         << " device=" << encodeValue(device)
         << " workload=" << encodeValue(workload)
         << " input=" << encodeValue(input)
         << " seed=" << seed
         << " runs=" << runs
         << " sensitive_area_au=" << buf << '\n';
}

void
BeamLogWriter::append(const RawRun &run)
{
    writeRunRecord(*os_, run, appended_);
    ++appended_;
}

struct BeamLogReader::ParserState
{
    RecordParser records;
};

BeamLogReader::BeamLogReader(std::istream &is)
    : is_(&is), state_(std::make_shared<ParserState>())
{
    std::string line;
    while (std::getline(*is_, line)) {
        if (line.empty())
            continue;
        std::istringstream iss(line);
        std::string keyword;
        iss >> keyword;
        if (keyword != "#HEADER")
            throw BeamLogParseError("beam log has no #HEADER");
        HeaderFields header = parseHeaderLine(iss, line);
        device_ = header.device;
        workload_ = header.workload;
        input_ = header.input;
        seed_ = header.seed;
        declaredRuns_ = header.runs;
        sensitiveAreaAu_ = header.sensitiveAreaAu;
        return;
    }
    throw BeamLogParseError("beam log has no #HEADER");
}

std::optional<RawRun>
BeamLogReader::next()
{
    if (done_)
        return std::nullopt;
    std::string line;
    while (std::getline(*is_, line)) {
        if (line.empty())
            continue;
        std::istringstream iss(line);
        std::string keyword;
        iss >> keyword;
        if (auto run = state_->records.consume(keyword, iss,
                                               line)) {
            ++read_;
            return run;
        }
    }
    if (state_->records.inRun)
        throw BeamLogParseError(strprintf(
            "beam log truncated inside run %llu",
            static_cast<unsigned long long>(
                state_->records.current.index)));
    done_ = true;
    if (read_ != declaredRuns_)
        throw BeamLogParseError(strprintf(
            "beam log declares %llu runs but contains %llu",
            static_cast<unsigned long long>(declaredRuns_),
            static_cast<unsigned long long>(read_)));
    return std::nullopt;
}

BeamLogSource::BeamLogSource(std::istream &is, uint64_t batchRuns)
    : reader_(is),
      batchRuns_(batchRuns == 0
                 ? std::max<uint64_t>(reader_.declaredRuns(), 1)
                 : batchRuns)
{
    meta_.deviceName = reader_.device();
    meta_.workloadName = reader_.workload();
    meta_.inputLabel = reader_.input();
    meta_.sim.seed = reader_.seed();
    meta_.sim.faultyRuns = reader_.declaredRuns();
    meta_.sensitiveAreaAu = reader_.sensitiveAreaAu();
}

bool
BeamLogSource::next(RunBatch &batch)
{
    batch.firstIndex = nextIndex_;
    batch.runs.clear();
    batch.runs.reserve(std::min<uint64_t>(
        batchRuns_, reader_.declaredRuns() - std::min<uint64_t>(
                        nextIndex_, reader_.declaredRuns())));
    while (batch.runs.size() < batchRuns_) {
        auto run = reader_.next();
        if (!run)
            break;
        batch.runs.push_back(std::move(*run));
    }
    nextIndex_ += batch.runs.size();
    return !batch.runs.empty();
}

void
BeamLogSink::begin(const CampaignMeta &meta)
{
    writer_.header(meta.deviceName, meta.workloadName,
                   meta.inputLabel, meta.sim.seed,
                   meta.sim.faultyRuns, meta.sensitiveAreaAu);
}

void
BeamLogSink::consume(RunBatch &&batch)
{
    for (const RawRun &run : batch.runs)
        writer_.append(run);
}

void
BeamLogSink::end(const StatsSnapshot &)
{
}

void
writeBeamLog(const CampaignRaw &raw, std::ostream &os)
{
    BeamLogWriter writer(os);
    writer.header(raw.deviceName, raw.workloadName,
                  raw.inputLabel, raw.sim.seed, raw.runs.size(),
                  raw.sensitiveAreaAu);
    for (const RawRun &run : raw.runs)
        writer.append(run);
}

void
writeBeamLogFile(const CampaignRaw &raw, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for beam-log output",
              path.c_str());
    writeBeamLog(raw, out);
    out.flush();
    if (!out)
        fatal("write error on beam log '%s'", path.c_str());
}

CampaignRaw
readBeamLog(std::istream &is)
{
    try {
        return parseBeamLog(is);
    } catch (const BeamLogParseError &e) {
        fatal("%s", e.what());
    }
}

CampaignRaw
readBeamLogFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open beam log '%s'", path.c_str());
    return readBeamLog(in);
}

std::optional<CampaignRaw>
tryReadBeamLog(std::istream &is, std::string *error)
{
    try {
        return parseBeamLog(is);
    } catch (const BeamLogParseError &e) {
        if (error)
            *error = e.what();
        return std::nullopt;
    }
}

std::optional<CampaignRaw>
tryReadBeamLogFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = strprintf("cannot open beam log '%s'",
                               path.c_str());
        return std::nullopt;
    }
    return tryReadBeamLog(in, error);
}

CheckpointWriter::CheckpointWriter(const std::string &path,
                                   const CampaignRaw &raw,
                                   uint64_t keepBytes,
                                   uint64_t flushEvery)
    : path_(path), flushEvery_(std::max<uint64_t>(flushEvery, 1))
{
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec && size > keepBytes)
        std::filesystem::resize_file(path, keepBytes, ec);
    if (ec && keepBytes > 0)
        fatal("cannot truncate checkpoint '%s' to %llu bytes",
              path.c_str(),
              static_cast<unsigned long long>(keepBytes));

    out_.open(path, std::ios::app);
    if (!out_)
        fatal("cannot open checkpoint '%s' for append",
              path.c_str());
    if (keepBytes == 0)
        out_ << shardHeader(raw) << std::flush;
    if (!out_)
        fatal("write error on checkpoint '%s'", path.c_str());
}

void
CheckpointWriter::append(const RawRun &run)
{
    std::ostringstream record;
    writeRunRecord(record, run, run.index);
    std::string bytes = record.str();
    // A planned corrupt-write fault tears the record in half —
    // exactly what a SIGKILL mid-append leaves behind — so the
    // torn-tail recovery path is testable deterministically.
    if (ChaosEngine *engine = chaos()) {
        if (engine->shouldCorruptWrite("checkpoint"))
            bytes.resize(bytes.size() / 2);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << bytes;
    ++appended_;
    if (appended_ % flushEvery_ == 0)
        out_.flush();
    if (!out_)
        fatal("write error on checkpoint '%s'", path_.c_str());
}

CheckpointRecovery
readCheckpointShards(const std::string &path,
                     const CampaignRaw &expect)
{
    CheckpointRecovery recovery;
    std::ifstream in(path);
    if (!in)
        return recovery;

    std::string line;
    RecordParser records;
    uint64_t offset = 0;
    bool have_header = false;

    while (std::getline(in, line)) {
        // A line without its trailing newline is the torn tail of
        // the append a killed process did not finish; even a
        // well-formed record there is dropped, because appending
        // after unterminated bytes would merge two lines.
        bool complete_line = !in.eof();
        uint64_t line_bytes = line.size() + 1;
        if (!complete_line) {
            records.inRun = true; // count the tear below
            break;
        }
        if (line.empty()) {
            offset += line_bytes;
            if (have_header && !records.inRun)
                recovery.validBytes = offset;
            continue;
        }
        std::istringstream iss(line);
        std::string keyword;
        iss >> keyword;
        try {
            if (keyword == "#SHARD") {
                auto fields = parseFields(iss, line);
                int64_t version =
                    toInt(need(fields, "version", line), line);
                if (version != beamLogVersion)
                    throw BeamLogParseError(strprintf(
                        "unsupported shard version %lld",
                        static_cast<long long>(version)));
                if (need(fields, "device", line) !=
                        expect.deviceName ||
                    need(fields, "workload", line) !=
                        expect.workloadName ||
                    need(fields, "input", line) !=
                        expect.inputLabel ||
                    toUint(need(fields, "seed", line), line) !=
                        expect.sim.seed ||
                    toUint(need(fields, "runs", line), line) !=
                        expect.sim.faultyRuns)
                    fatal("checkpoint '%s' belongs to a "
                          "different campaign (%s)",
                          path.c_str(), line.c_str());
                have_header = true;
            } else if (!have_header) {
                throw BeamLogParseError(strprintf(
                    "checkpoint has no #SHARD header: %s",
                    line.c_str()));
            } else if (auto run = records.consume(keyword, iss,
                                                  line)) {
                recovery.runs.push_back(std::move(*run));
            }
        } catch (const BeamLogParseError &e) {
            // Anything after a malformed line is suspect: stop at
            // the last complete record.
            warn("checkpoint '%s': %s", path.c_str(), e.what());
            records.inRun = true;
            break;
        }
        offset += line_bytes;
        if (have_header && !records.inRun)
            recovery.validBytes = offset;
    }

    if (!have_header) {
        recovery.runs.clear();
        recovery.validBytes = 0;
        return recovery;
    }
    recovery.found = true;
    if (records.inRun) {
        ++recovery.tornRecords;
        warn("checkpoint '%s': dropping torn trailing record "
             "(resuming from %llu complete run(s))",
             path.c_str(),
             static_cast<unsigned long long>(
                 recovery.runs.size()));
        StatsRegistry::global()
            .counter("resilience.checkpoint.torn_records")
            .inc();
    }
    return recovery;
}

} // namespace radcrit
