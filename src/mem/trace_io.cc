#include "mem/trace_io.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"

#ifdef SLIP_HAVE_ZLIB
#include <zlib.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#define SLIP_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace slip {

namespace {

constexpr char kMagic1[8] = {'S', 'L', 'I', 'P', 'T', 'R', 'C', '1'};
constexpr char kMagic2[8] = {'S', 'L', 'I', 'P', 'T', 'R', 'C', '2'};
constexpr std::uint32_t kTrc2HeaderBytes = 32;
/** Header flag bit0: records carry an icount-delta varint. */
constexpr std::uint32_t kTrc2FlagIcount = 1u << 0;
constexpr std::uint32_t kTrc2KnownFlags = kTrc2FlagIcount;
constexpr unsigned kTrc2MaxCores = 256;
/** Record head byte: bit0 = write, bit1 = core id follows. */
constexpr std::uint8_t kHeadWrite = 1u << 0;
constexpr std::uint8_t kHeadCore = 1u << 1;
constexpr std::uint8_t kHeadKnown = kHeadWrite | kHeadCore;
constexpr unsigned kMaxVarintBytes = 10;
/** Longest SLIPTRC2 record: the head byte and three full varints. */
constexpr std::size_t kTrc2MaxRecordBytes = 1 + 3 * kMaxVarintBytes;
constexpr std::size_t kIoChunk = 1u << 18;  // 256 KB

/** How decoding one LEB128 varint from a byte window ended. */
enum class VarintStatus { Ok, Truncated, Overrun };

/** Decode the varint at @p p within [p, end), advancing @p p. */
inline VarintStatus
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
    v = 0;
    for (unsigned i = 0; i < kMaxVarintBytes; ++i) {
        if (p == end)
            return VarintStatus::Truncated;
        const std::uint8_t b = *p++;
        v |= std::uint64_t(b & 0x7f) << (7 * i);
        if ((b & 0x80) == 0)
            return VarintStatus::Ok;
    }
    return VarintStatus::Overrun;
}

std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

void
putLe32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putLe64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getLe32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(p[i]) << (8 * i);
    return v;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string
errnoMessage()
{
    return std::strerror(errno);
}

} // namespace

const char *
traceFormatName(TraceFormat f)
{
    switch (f) {
      case TraceFormat::Sliptrc2: return "SLIPTRC2";
      case TraceFormat::Sliptrc1: return "SLIPTRC1";
      case TraceFormat::Text: return "text";
    }
    return "?";
}

const char *
traceCompressionName(TraceCompression c)
{
    switch (c) {
      case TraceCompression::None: return "none";
      case TraceCompression::Gzip: return "gzip";
      case TraceCompression::Zstd: return "zstd";
    }
    return "?";
}

// ---------------------------------------------------------------------
// TraceInput: bytes from disk, decompressed, with bounded memory.
// ---------------------------------------------------------------------

struct TraceInput::Impl
{
    std::string path;
    std::FILE *file = nullptr;
    TraceCompression comp = TraceCompression::None;
    std::uint64_t offset = 0;  ///< decoded bytes handed out

    // mmap fast path (plain regular files).
    void *map = nullptr;
    std::size_t mapSize = 0;
    std::size_t mapPos = 0;

#ifdef SLIP_HAVE_ZLIB
    z_stream z{};
    bool zLive = false;
    bool zStreamEnd = false;
    std::vector<std::uint8_t> zin;
    std::size_t zinPos = 0, zinLen = 0;
    bool zInEof = false;
#endif

    ~Impl()
    {
#ifdef SLIP_HAVE_ZLIB
        if (zLive)
            inflateEnd(&z);
#endif
#ifdef SLIP_TRACE_HAVE_MMAP
        if (map)
            munmap(map, mapSize);
#endif
        if (file)
            std::fclose(file);
    }
};

TraceInput::TraceInput() : _impl(std::make_unique<Impl>()) {}
TraceInput::~TraceInput() = default;

std::string
TraceInput::open(const std::string &path)
{
    Impl &im = *_impl;
    im.path = path;
    im.file = std::fopen(path.c_str(), "rb");
    if (!im.file)
        return path + ": cannot open trace: " + errnoMessage();

    // Sniff the container compression from the leading magic bytes.
    std::uint8_t magic[4] = {0, 0, 0, 0};
    const std::size_t got = std::fread(magic, 1, sizeof(magic),
                                       im.file);
    if (std::ferror(im.file))
        return path + ": read error: " + errnoMessage();
    if (std::fseek(im.file, 0, SEEK_SET) != 0)
        return path + ": seek error: " + errnoMessage();

    if (got >= 2 && magic[0] == 0x1f && magic[1] == 0x8b)
        im.comp = TraceCompression::Gzip;
    else if (got >= 4 && magic[0] == 0x28 && magic[1] == 0xb5 &&
             magic[2] == 0x2f && magic[3] == 0xfd)
        im.comp = TraceCompression::Zstd;

    if (im.comp == TraceCompression::Zstd)
        return path + ": unsupported compression: zstd (this build "
                      "has no zstd support; decompress with `unzstd` "
                      "first)";
    if (im.comp == TraceCompression::Gzip) {
#ifdef SLIP_HAVE_ZLIB
        im.z.zalloc = Z_NULL;
        im.z.zfree = Z_NULL;
        im.z.opaque = Z_NULL;
        // 15+32: accept both gzip and zlib wrappers.
        if (inflateInit2(&im.z, 15 + 32) != Z_OK)
            return path + ": cannot initialize gzip decompression";
        im.zLive = true;
        im.zin.resize(kIoChunk);
        return "";
#else
        return path + ": unsupported compression: gzip (this build "
                      "was configured without zlib; decompress with "
                      "`gunzip` first)";
#endif
    }

#ifdef SLIP_TRACE_HAVE_MMAP
    // Plain regular files stream from a read-only mapping: no copies
    // into stdio buffers, and the page cache bounds residency.
    struct stat st;
    if (fstat(fileno(im.file), &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_size > 0) {
        void *m = mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fileno(im.file), 0);
        if (m != MAP_FAILED) {
            im.map = m;
            im.mapSize = static_cast<std::size_t>(st.st_size);
        }
    }
#endif
    return "";
}

std::size_t
TraceInput::read(void *dst, std::size_t max, std::string &err)
{
    Impl &im = *_impl;
    if (max == 0)
        return 0;

    if (im.map) {
        const std::size_t n =
            std::min(max, im.mapSize - im.mapPos);
        std::memcpy(dst,
                    static_cast<const std::uint8_t *>(im.map) +
                        im.mapPos,
                    n);
        im.mapPos += n;
        im.offset += n;
        return n;
    }

#ifdef SLIP_HAVE_ZLIB
    if (im.comp == TraceCompression::Gzip) {
        im.z.next_out = static_cast<Bytef *>(dst);
        im.z.avail_out = static_cast<uInt>(max);
        while (im.z.avail_out > 0) {
            if (im.zinPos == im.zinLen && !im.zInEof) {
                im.zinLen = std::fread(im.zin.data(), 1,
                                       im.zin.size(), im.file);
                im.zinPos = 0;
                if (std::ferror(im.file)) {
                    err = im.path + ": read error: " + errnoMessage();
                    return 0;
                }
                if (im.zinLen == 0)
                    im.zInEof = true;
            }
            if (im.zStreamEnd) {
                if (im.zinPos == im.zinLen)
                    break;  // clean end of the last member
                // Concatenated gzip members (gzip -c a b > t.gz).
                if (inflateReset(&im.z) != Z_OK) {
                    err = im.path + ": gzip decompression error";
                    return 0;
                }
                im.zStreamEnd = false;
            }
            if (im.zinPos == im.zinLen && im.zInEof) {
                err = im.path +
                      ": truncated or corrupt gzip stream (ended "
                      "mid-member)";
                return 0;
            }
            im.z.next_in = im.zin.data() + im.zinPos;
            im.z.avail_in = static_cast<uInt>(im.zinLen - im.zinPos);
            const int rc = inflate(&im.z, Z_NO_FLUSH);
            im.zinPos = im.zinLen - im.z.avail_in;
            if (rc == Z_STREAM_END) {
                im.zStreamEnd = true;
                continue;
            }
            if (rc != Z_OK && rc != Z_BUF_ERROR) {
                err = im.path + ": corrupt gzip stream (" +
                      (im.z.msg ? im.z.msg : "inflate error") + ")";
                return 0;
            }
        }
        const std::size_t n = max - im.z.avail_out;
        im.offset += n;
        return n;
    }
#endif

    const std::size_t n = std::fread(dst, 1, max, im.file);
    if (n < max && std::ferror(im.file)) {
        err = im.path + ": read error: " + errnoMessage();
        return 0;
    }
    im.offset += n;
    return n;
}

std::string
TraceInput::rewind()
{
    Impl &im = *_impl;
    im.offset = 0;
    if (im.map) {
        im.mapPos = 0;
        return "";
    }
    if (std::fseek(im.file, 0, SEEK_SET) != 0)
        return im.path + ": seek error: " + errnoMessage();
#ifdef SLIP_HAVE_ZLIB
    if (im.comp == TraceCompression::Gzip) {
        if (inflateReset(&im.z) != Z_OK)
            return im.path + ": cannot reset gzip decompression";
        im.zStreamEnd = false;
        im.zinPos = im.zinLen = 0;
        im.zInEof = false;
    }
#endif
    return "";
}

std::uint64_t
TraceInput::offset() const
{
    return _impl->offset;
}

TraceCompression
TraceInput::compression() const
{
    return _impl->comp;
}

const std::string &
TraceInput::path() const
{
    return _impl->path;
}

// ---------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------

TraceReader::TraceReader() = default;
TraceReader::~TraceReader() = default;

std::string
TraceReader::at(std::uint64_t off) const
{
    return _path + ": offset " + std::to_string(off) + ": ";
}

/**
 * Top the window up to at least @p want buffered bytes (fewer only at
 * the end of input), carrying the unconsumed tail to the front first.
 * @return true when at least one byte is buffered
 */
bool
TraceReader::fill(std::string &err, std::size_t want)
{
    if (_len - _pos >= want || _end)
        return _pos < _len;
    const std::size_t tail = _len - _pos;
    std::memmove(_buf.data(), _buf.data() + _pos, tail);
    _base += _pos;
    _pos = 0;
    _len = tail;
    while (_len < want && !_end) {
        const std::size_t n =
            _in.read(_buf.data() + _len, _buf.size() - _len, err);
        if (!err.empty())
            return false;
        _end = n == 0;
        _len += n;
    }
    return _len > 0;
}

/** Next byte, or -1 at end of input / on error (@p err set). */
int
TraceReader::getByte(std::string &err)
{
    if (!fill(err))
        return -1;
    return _buf[_pos++];
}

std::string
TraceReader::parseHeader()
{
    _info = TraceInfo{};
    _info.compression = _in.compression();
    _core = 0;
    _nread = 0;

    std::string err;
    fill(err);
    if (!err.empty())
        return err;
    const std::size_t avail = _len - _pos;

    const bool m2 = avail >= sizeof(kMagic2) &&
                    std::memcmp(&_buf[_pos], kMagic2,
                                sizeof(kMagic2)) == 0;
    const bool m1 = !m2 && avail >= sizeof(kMagic1) &&
                    std::memcmp(&_buf[_pos], kMagic1,
                                sizeof(kMagic1)) == 0;

    if (m1) {
        _pos += sizeof(kMagic1);
        _info.format = TraceFormat::Sliptrc1;
        _info.coreCount = 1;
        _prevAddr.assign(1, 0);
        return "";
    }
    if (!m2) {
        // Anything without a magic prefix parses as the text format.
        _info.format = TraceFormat::Text;
        _info.coreCount = 1;
        _prevAddr.assign(1, 0);
        return "";
    }

    // The 32-byte SLIPTRC2 header lands well inside the first window.
    if (avail < kTrc2HeaderBytes)
        return at(avail) + "truncated header: file ends here (a "
                           "SLIPTRC2 header is " +
               std::to_string(kTrc2HeaderBytes) + " bytes)";
    const std::uint8_t *h = &_buf[_pos];
    const std::uint32_t headerBytes = getLe32(h + 8);
    const std::uint32_t flags = getLe32(h + 12);
    const std::uint32_t cores = getLe32(h + 16);
    const std::uint64_t records = getLe64(h + 24);

    if (headerBytes < kTrc2HeaderBytes)
        return at(8) + "header size " + std::to_string(headerBytes) +
               " is smaller than the fixed " +
               std::to_string(kTrc2HeaderBytes) + "-byte header";
    if ((flags & ~kTrc2KnownFlags) != 0) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%x",
                      flags & ~kTrc2KnownFlags);
        return at(12) + "unsupported format flags " + hex +
               " (written by a newer tool?)";
    }
    if (cores == 0 || cores > kTrc2MaxCores)
        return at(16) + "impossible core count " +
               std::to_string(cores) + " (want 1.." +
               std::to_string(kTrc2MaxCores) + ")";
    if (records == 0)
        return at(24) + "zero-record trace (record count is 0; was "
                        "the writer closed?)";

    _pos += kTrc2HeaderBytes;
    // Skip extension bytes a newer writer may have appended.
    for (std::uint32_t skip = headerBytes - kTrc2HeaderBytes;
         skip > 0; --skip) {
        const int b = getByte(err);
        if (b < 0)
            return !err.empty()
                       ? err
                       : at(offset()) +
                             "truncated header: file ends inside the "
                             "extended header";
    }

    _info.format = TraceFormat::Sliptrc2;
    _info.coreCount = cores;
    _info.recordCount = records;
    _info.hasIcount = (flags & kTrc2FlagIcount) != 0;
    _prevAddr.assign(cores, 0);
    return "";
}

std::string
TraceReader::open(const std::string &path)
{
    _path = path;
    _buf.resize(kIoChunk);
    _pos = _len = 0;
    _base = 0;
    _end = false;
    const std::string err = _in.open(path);
    if (!err.empty())
        return err;
    return parseHeader();
}

std::string
TraceReader::rewind()
{
    std::string err = _in.rewind();
    if (!err.empty())
        return err;
    _pos = _len = 0;
    _base = 0;
    _end = false;
    return parseHeader();
}

bool
TraceReader::nextSliptrc2(TraceRecord &out, std::string &err)
{
    if (_nread == _info.recordCount) {
        // The header promised exactly recordCount records; any byte
        // beyond them is a sign of corruption or concatenation.
        const std::uint64_t off = offset();
        if (fill(err))
            err = at(off) + "trailing garbage after the " +
                  std::to_string(_info.recordCount) +
                  " records the header declares";
        return false;
    }

    // One pass over a contiguous record: the window holds the longest
    // possible record unless the input ends first, so running off its
    // end means the file ends mid-record.
    if (!fill(err, kTrc2MaxRecordBytes) && !err.empty())
        return false;
    const std::uint8_t *const begin = _buf.data() + _pos;
    const std::uint8_t *const end = _buf.data() + _len;
    const std::uint64_t start = offset();
    if (begin == end) {
        err = at(start) + "truncated trace: file ends after " +
              std::to_string(_nread) + " of " +
              std::to_string(_info.recordCount) + " records";
        return false;
    }
    const std::uint8_t *p = begin;
    const std::uint8_t head = *p++;
    if ((head & ~kHeadKnown) != 0) {
        char hex[16];
        std::snprintf(hex, sizeof(hex), "0x%02x", unsigned(head));
        err = at(start) + "invalid record flags " + hex;
        return false;
    }

    // Decode one varint field, naming its first byte on failure.
    const auto field = [&](std::uint64_t &v, const char *what) {
        const std::uint64_t off = start + std::uint64_t(p - begin);
        switch (getVarint(p, end, v)) {
          case VarintStatus::Ok:
            return true;
          case VarintStatus::Overrun:
            err = at(off) + "varint overrun decoding " + what +
                  " (more than " + std::to_string(kMaxVarintBytes) +
                  " bytes)";
            return false;
          case VarintStatus::Truncated:
            break;
        }
        err = at(off) + "truncated varint decoding " + what +
              " (file ends mid-record)";
        return false;
    };

    unsigned core = _core;
    if (head & kHeadCore) {
        std::uint64_t id;
        if (!field(id, "core id"))
            return false;
        if (id >= _info.coreCount) {
            err = at(start) + "impossible core id " +
                  std::to_string(id) + " (trace has " +
                  std::to_string(_info.coreCount) + " cores)";
            return false;
        }
        core = static_cast<unsigned>(id);
    }

    std::uint64_t zz;
    if (!field(zz, "address delta"))
        return false;
    std::uint64_t ic = 1;
    if (_info.hasIcount && !field(ic, "icount delta"))
        return false;

    _pos += static_cast<std::size_t>(p - begin);
    _core = core;
    const std::uint64_t addr =
        _prevAddr[core] + static_cast<std::uint64_t>(zigzagDecode(zz));
    _prevAddr[core] = addr;
    out.core = core;
    out.addr = addr;
    out.write = (head & kHeadWrite) != 0;
    out.icountDelta = ic;
    ++_nread;
    return true;
}

bool
TraceReader::nextSliptrc1(TraceRecord &out, std::string &err)
{
    const std::uint64_t start = offset();
    std::uint8_t rec[9];
    for (std::size_t i = 0; i < sizeof(rec); ++i) {
        const int b = getByte(err);
        if (b < 0) {
            if (!err.empty())
                return false;
            if (i == 0)
                return false;  // clean end between records
            err = at(start) + "truncated record: got " +
                  std::to_string(i) + " of 9 bytes";
            return false;
        }
        rec[i] = static_cast<std::uint8_t>(b);
    }
    out.core = 0;
    out.addr = getLe64(rec);
    out.write = rec[8] != 0;
    out.icountDelta = 1;
    ++_nread;
    return true;
}

bool
TraceReader::nextText(TraceRecord &out, std::string &err)
{
    for (;;) {
        // Skip blank space between records.
        int c;
        do {
            c = getByte(err);
            if (c < 0)
                return false;  // err set on I/O error, else clean end
        } while (c == ' ' || c == '\t' || c == '\r' || c == '\n');

        const std::uint64_t start = offset() - 1;
        if (c == '#') {  // comment to end of line
            do {
                c = getByte(err);
            } while (c >= 0 && c != '\n');
            if (!err.empty())
                return false;
            continue;
        }
        if (c != 'R' && c != 'r' && c != 'W' && c != 'w') {
            err = at(start) + "malformed text record (expected "
                              "\"R|W <hex-addr>\")";
            return false;
        }
        const bool write = c == 'W' || c == 'w';

        do {
            c = getByte(err);
        } while (c == ' ' || c == '\t');
        std::uint64_t addr = 0;
        unsigned digits = 0;
        while (c >= 0) {
            int d;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (c >= 'a' && c <= 'f')
                d = c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                d = c - 'A' + 10;
            else
                break;
            if (++digits > 16) {
                err = at(start) + "address wider than 64 bits";
                return false;
            }
            addr = (addr << 4) | unsigned(d);
            c = getByte(err);
        }
        if (!err.empty())
            return false;
        if (digits == 0) {
            err = at(start) + "malformed text record (expected "
                              "\"R|W <hex-addr>\")";
            return false;
        }
        // Only whitespace may follow the address on the line.
        while (c == ' ' || c == '\t' || c == '\r')
            c = getByte(err);
        if (c >= 0 && c != '\n') {
            err = at(offset() - 1) +
                  "trailing garbage after text record";
            return false;
        }
        if (!err.empty())
            return false;

        out.core = 0;
        out.addr = addr;
        out.write = write;
        out.icountDelta = 1;
        ++_nread;
        return true;
    }
}

bool
TraceReader::next(TraceRecord &out, std::string &err)
{
    err.clear();
    switch (_info.format) {
      case TraceFormat::Sliptrc2: return nextSliptrc2(out, err);
      case TraceFormat::Sliptrc1: return nextSliptrc1(out, err);
      case TraceFormat::Text: return nextText(out, err);
    }
    return false;
}

// ---------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------

std::unique_ptr<TraceWriter>
TraceWriter::create(const std::string &path, TraceFormat format,
                    unsigned coreCount, std::string *err)
{
    const auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return nullptr;
    };
    if (coreCount == 0 || coreCount > kTrc2MaxCores)
        return fail(path + ": core count " +
                    std::to_string(coreCount) + " out of range (1.." +
                    std::to_string(kTrc2MaxCores) + ")");
    if (format != TraceFormat::Sliptrc2 && coreCount > 1)
        return fail(path + ": the " +
                    std::string(traceFormatName(format)) +
                    " format is single-core; use SLIPTRC2 for " +
                    std::to_string(coreCount) + " cores");
    if (endsWith(path, ".zst"))
        return fail(path + ": unsupported compression: zstd (write "
                           "plain or .gz)");

    TraceCompression comp = TraceCompression::None;
    if (endsWith(path, ".gz")) {
#ifdef SLIP_HAVE_ZLIB
        comp = TraceCompression::Gzip;
#else
        return fail(path + ": unsupported compression: gzip (this "
                           "build was configured without zlib; write "
                           "plain and compress externally)");
#endif
    }

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return fail(path + ": cannot open trace for writing: " +
                    errnoMessage());

    std::unique_ptr<TraceWriter> w(new TraceWriter);
    w->_path = path;
    w->_format = format;
    w->_comp = comp;
    w->_coreCount = coreCount;
    w->_file = f;
    w->_prevAddr.assign(coreCount, 0);
    w->_chunk.reserve(kIoChunk + 64);

    if (format == TraceFormat::Sliptrc2) {
        w->_chunk.insert(w->_chunk.end(), kMagic2, kMagic2 + 8);
        putLe32(w->_chunk, kTrc2HeaderBytes);
        putLe32(w->_chunk, kTrc2FlagIcount);
        putLe32(w->_chunk, coreCount);
        putLe32(w->_chunk, 0);  // reserved
        putLe64(w->_chunk, 0);  // record count, patched at close
    } else if (format == TraceFormat::Sliptrc1) {
        w->_chunk.insert(w->_chunk.end(), kMagic1, kMagic1 + 8);
    }
    return w;
}

TraceWriter::~TraceWriter()
{
    const std::string err = close();
    if (!err.empty())
        warn("unclosed trace writer: %s", err.c_str());
}

void
TraceWriter::putVarint(std::uint64_t v)
{
    while (v >= 0x80) {
        put(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    put(static_cast<std::uint8_t>(v));
}

std::string
TraceWriter::flushChunk()
{
    if (_chunk.empty())
        return "";
    if (_comp == TraceCompression::Gzip) {
        // Buffered whole so close() can patch the record count
        // before compressing (gzip streams cannot be seek-patched).
        _all.insert(_all.end(), _chunk.begin(), _chunk.end());
    } else {
        if (std::fwrite(_chunk.data(), 1, _chunk.size(), _file) !=
            _chunk.size()) {
            _ioError = true;
            return _path + ": short write: " + errnoMessage();
        }
    }
    _chunk.clear();
    return "";
}

void
TraceWriter::append(const TraceRecord &rec)
{
    slip_assert(!_closed, "append to a closed trace writer");
    slip_assert(rec.core < _coreCount,
                "trace record core out of range");
    switch (_format) {
      case TraceFormat::Sliptrc2: {
        std::uint8_t head = rec.write ? kHeadWrite : 0;
        if (rec.core != _core)
            head |= kHeadCore;
        put(head);
        if (head & kHeadCore) {
            putVarint(rec.core);
            _core = rec.core;
        }
        const std::int64_t delta = static_cast<std::int64_t>(
            rec.addr - _prevAddr[_core]);
        putVarint(zigzagEncode(delta));
        _prevAddr[_core] = rec.addr;
        putVarint(rec.icountDelta);
        break;
      }
      case TraceFormat::Sliptrc1: {
        std::uint8_t enc[9];
        for (int i = 0; i < 8; ++i)
            enc[i] = static_cast<std::uint8_t>(rec.addr >> (8 * i));
        enc[8] = rec.write ? 1 : 0;
        _chunk.insert(_chunk.end(), enc, enc + sizeof(enc));
        break;
      }
      case TraceFormat::Text: {
        char line[32];
        const int n = std::snprintf(line, sizeof(line),
                                    "%c %" PRIx64 "\n",
                                    rec.write ? 'W' : 'R', rec.addr);
        _chunk.insert(_chunk.end(), line, line + n);
        break;
      }
    }
    ++_count;
    if (_comp == TraceCompression::None && _chunk.size() >= kIoChunk) {
        const std::string err = flushChunk();
        if (!err.empty() && !_ioError)
            _ioError = true;  // surfaced by close()
    }
}

void
TraceWriter::append(const MemAccess &acc)
{
    append(TraceRecord{0, acc.addr, acc.isWrite(), 1});
}

std::string
TraceWriter::close()
{
    if (_closed)
        return "";
    _closed = true;
    std::string err = flushChunk();

    if (err.empty() && _ioError)
        err = _path + ": short write";

    if (err.empty() && _comp == TraceCompression::Gzip) {
#ifdef SLIP_HAVE_ZLIB
        if (_format == TraceFormat::Sliptrc2)
            for (int i = 0; i < 8; ++i)
                _all[24 + i] =
                    static_cast<std::uint8_t>(_count >> (8 * i));
        z_stream z{};
        // 15+16: emit a gzip (not zlib) wrapper.
        if (deflateInit2(&z, Z_DEFAULT_COMPRESSION, Z_DEFLATED,
                         15 + 16, 8, Z_DEFAULT_STRATEGY) != Z_OK) {
            err = _path + ": cannot initialize gzip compression";
        } else {
            z.next_in = _all.data();
            z.avail_in = static_cast<uInt>(_all.size());
            std::vector<std::uint8_t> out(kIoChunk);
            int rc;
            do {
                z.next_out = out.data();
                z.avail_out = static_cast<uInt>(out.size());
                rc = deflate(&z, Z_FINISH);
                const std::size_t n = out.size() - z.avail_out;
                if (n && std::fwrite(out.data(), 1, n, _file) != n) {
                    err = _path + ": short write: " + errnoMessage();
                    break;
                }
            } while (rc == Z_OK);
            if (err.empty() && rc != Z_STREAM_END)
                err = _path + ": gzip compression error";
            deflateEnd(&z);
        }
#endif
    } else if (err.empty() && _format == TraceFormat::Sliptrc2) {
        // Patch the record count into the header on disk.
        std::uint8_t cnt[8];
        for (int i = 0; i < 8; ++i)
            cnt[i] = static_cast<std::uint8_t>(_count >> (8 * i));
        if (std::fseek(_file, 24, SEEK_SET) != 0 ||
            std::fwrite(cnt, 1, sizeof(cnt), _file) != sizeof(cnt))
            err = _path +
                  ": cannot patch the record count: " + errnoMessage();
    }

    if (_file) {
        if (std::fclose(_file) != 0 && err.empty())
            err = _path + ": close failed: " + errnoMessage();
        _file = nullptr;
    }
    return err;
}

// ---------------------------------------------------------------------
// TraceSource
// ---------------------------------------------------------------------

std::unique_ptr<TraceSource>
TraceSource::open(const std::string &path, unsigned core, bool loop,
                  std::string *err)
{
    std::unique_ptr<TraceSource> src(new TraceSource);
    std::string e = src->_reader.open(path);
    if (!e.empty()) {
        if (err)
            *err = e;
        return nullptr;
    }
    const TraceInfo &info = src->_reader.info();
    // Single-core traces feed every requested core the full stream;
    // multicore traces demux by record core id.
    src->_filter = info.coreCount > 1;
    if (src->_filter && core >= info.coreCount) {
        if (err)
            *err = path + ": trace provides " +
                   std::to_string(info.coreCount) +
                   " cores but core " + std::to_string(core) +
                   " was requested";
        return nullptr;
    }
    src->_core = core;
    src->_loop = loop;
    return src;
}

bool
TraceSource::next(MemAccess &out)
{
    return nextBatch(&out, 1) == 1;
}

std::size_t
TraceSource::nextBatch(MemAccess *out, std::size_t max)
{
    TraceRecord rec;
    std::string err;
    std::size_t n = 0;
    while (n < max) {
        if (_reader.next(rec, err)) {
            if (_filter && rec.core != _core)
                continue;
            ++_matchedThisPass;
            out[n].addr = rec.addr;
            out[n].type = rec.write ? AccessType::Write
                                    : AccessType::Read;
            ++n;
            continue;
        }
        // The file was validated when the source was opened, so a
        // decode error here means it changed underneath the run.
        if (!err.empty())
            fatal("%s", err.c_str());
        // Looping a pass that produced nothing for this core would
        // spin forever; treat it as exhaustion instead.
        if (!_loop || _matchedThisPass == 0)
            break;
        _matchedThisPass = 0;
        err = _reader.rewind();
        if (!err.empty())
            fatal("%s", err.c_str());
    }
    return n;
}

void
TraceSource::reset()
{
    _matchedThisPass = 0;
    const std::string err = _reader.rewind();
    if (!err.empty())
        fatal("%s", err.c_str());
}

// ---------------------------------------------------------------------
// Whole-trace helpers
// ---------------------------------------------------------------------

std::string
scanTrace(const std::string &path, TraceScan &out)
{
    out = TraceScan{};
    TraceReader r;
    std::string err = r.open(path);
    if (!err.empty())
        return err;
    out.info = r.info();
    out.perCore.assign(out.info.coreCount, 0);

    TraceRecord rec;
    while (r.next(rec, err)) {
        ++out.records;
        // A corrupt multicore trace can carry a core id beyond the
        // header's core table; reject it instead of indexing past
        // the per-core counters.
        if (rec.core >= out.perCore.size())
            return path + ": record " + std::to_string(out.records) +
                   ": core id " + std::to_string(rec.core) +
                   " out of range (header declares " +
                   std::to_string(out.info.coreCount) + " core(s))";
        ++out.perCore[rec.core];
        if (rec.write)
            ++out.writes;
        else
            ++out.reads;
        out.icountTotal += rec.icountDelta;
    }
    if (!err.empty())
        return err;
    if (out.records == 0)
        return path + ": no trace records";
    return "";
}

std::uint64_t
traceFileHash(const std::string &path, std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (err)
            *err = path + ": cannot open trace: " + errnoMessage();
        return 0;
    }
    std::uint64_t h = 1469598103934665603ull;
    std::vector<std::uint8_t> buf(kIoChunk);
    for (;;) {
        const std::size_t n = std::fread(buf.data(), 1, buf.size(), f);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= buf[i];
            h *= 1099511628211ull;
        }
        if (n < buf.size()) {
            if (std::ferror(f) && err)
                *err = path + ": read error: " + errnoMessage();
            break;
        }
    }
    std::fclose(f);
    return h;
}

} // namespace slip
