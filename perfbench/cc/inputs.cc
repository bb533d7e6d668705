#include "inputs.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

namespace perfbench
{

namespace
{

[[noreturn]] void
die(const std::string &what)
{
    std::fprintf(stderr, "perfbench: bad input file: %s\n", what.c_str());
    std::exit(2);
}

/** Bounds-checked little-endian reader over the loaded file. */
class Reader
{
  public:
    explicit Reader(std::vector<char> bytes) : buf(std::move(bytes)) {}

    std::uint64_t
    uint(unsigned width)
    {
        need(width);
        std::uint64_t v = 0;
        for (unsigned i = 0; i < width; ++i)
            v |= std::uint64_t(std::uint8_t(buf[pos + i])) << (8 * i);
        pos += width;
        return v;
    }

    std::string
    name()
    {
        const std::uint64_t len = uint(4);
        if (len > 256)
            die("name too long");
        need(len);
        std::string s(buf.data() + pos, len);
        pos += len;
        return s;
    }

    void
    need(std::uint64_t n) const
    {
        if (n > buf.size() - pos)
            die("truncated");
    }

    bool done() const { return pos == buf.size(); }

  private:
    std::vector<char> buf;
    std::size_t pos = 0;
};

} // namespace

Inputs
Inputs::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot open " + path);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (bytes.size() < 4 || std::memcmp(bytes.data(), "EPB1", 4) != 0)
        die("missing EPB1 magic");
    Reader r(std::vector<char>(bytes.begin() + 4, bytes.end()));

    Inputs inputs;
    const std::uint64_t nparams = r.uint(4);
    for (std::uint64_t i = 0; i < nparams; ++i) {
        std::string key = r.name();
        inputs.params[key] = r.uint(8);
    }
    const std::uint64_t nstreams = r.uint(4);
    for (std::uint64_t i = 0; i < nstreams; ++i) {
        std::string key = r.name();
        const std::uint64_t count = r.uint(8);
        if (count > (std::uint64_t{1} << 32))
            die("stream too long");
        r.need(count * 4);
        std::vector<std::uint32_t> values(count);
        for (auto &v : values)
            v = std::uint32_t(r.uint(4));
        inputs.streams[key] = std::move(values);
    }
    if (!r.done())
        die("trailing bytes");
    return inputs;
}

std::uint64_t
Inputs::param(const std::string &name) const
{
    auto it = params.find(name);
    if (it == params.end())
        die("missing parameter " + name);
    return it->second;
}

const std::vector<std::uint32_t> &
Inputs::stream(const std::string &name) const
{
    auto it = streams.find(name);
    if (it == streams.end() || it->second.empty())
        die("missing or empty stream " + name);
    return it->second;
}

} // namespace perfbench
