#include "io/raster.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace compass::io {

namespace {

constexpr std::uint32_t kMagic = 0x52535452;  // "RSTR"
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::size_t Raster::active_ticks() const {
  std::set<std::uint32_t> ticks;
  for (const RasterEvent& e : events_) ticks.insert(e.tick);
  return ticks.size();
}

void RasterRecorder::end_compute() {
  for (Raster& rank : staged_) {
    raster_.events_.insert(raster_.events_.end(), rank.events_.begin(),
                           rank.events_.end());
    rank.clear();
  }
}

void Raster::write_text(std::ostream& os) const {
  os << "# tick core neuron\n";
  for (const RasterEvent& e : events_) {
    os << e.tick << ' ' << e.core << ' ' << e.neuron << '\n';
  }
}

Raster Raster::read_text(std::istream& is) {
  Raster out;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    RasterEvent e;
    unsigned neuron = 0;
    if (!(ls >> e.tick >> e.core >> neuron) || neuron >= 256) {
      throw std::runtime_error("Raster::read_text: bad record at line " +
                               std::to_string(line_no));
    }
    e.neuron = static_cast<std::uint16_t>(neuron);
    out.events_.push_back(e);
  }
  return out;
}

void Raster::write_binary(std::ostream& os) const {
  const std::uint64_t count = events_.size();
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof kMagic);
  os.write(reinterpret_cast<const char*>(&kVersion), sizeof kVersion);
  os.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (const RasterEvent& e : events_) {
    os.write(reinterpret_cast<const char*>(&e.tick), sizeof e.tick);
    os.write(reinterpret_cast<const char*>(&e.core), sizeof e.core);
    os.write(reinterpret_cast<const char*>(&e.neuron), sizeof e.neuron);
  }
}

Raster Raster::read_binary(std::istream& is) {
  std::uint32_t magic = 0, version = 0;
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof magic);
  is.read(reinterpret_cast<char*>(&version), sizeof version);
  is.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!is || magic != kMagic || version != kVersion) {
    throw std::runtime_error("Raster::read_binary: bad header");
  }
  Raster out;
  out.events_.resize(count);
  for (RasterEvent& e : out.events_) {
    is.read(reinterpret_cast<char*>(&e.tick), sizeof e.tick);
    is.read(reinterpret_cast<char*>(&e.core), sizeof e.core);
    is.read(reinterpret_cast<char*>(&e.neuron), sizeof e.neuron);
  }
  if (!is) throw std::runtime_error("Raster::read_binary: truncated stream");
  return out;
}

bool Raster::save(const std::string& path, bool binary) const {
  std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
  if (!os) return false;
  if (binary) {
    write_binary(os);
  } else {
    write_text(os);
  }
  return static_cast<bool>(os);
}

Raster Raster::load(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error("Raster::load: cannot open " + path);
  std::uint32_t magic = 0;
  probe.read(reinterpret_cast<char*>(&magic), sizeof magic);
  probe.seekg(0);
  if (magic == kMagic) return read_binary(probe);
  return read_text(probe);
}

}  // namespace compass::io
