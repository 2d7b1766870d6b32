// Vision applications demo: character recognition and motion detection on
// neurosynaptic cores — two of the applications section I says were
// demonstrated on Compass ("character recognition", "optic flow",
// "spatio-temporal feature extraction").
#include <array>
#include <iostream>
#include <memory>
#include <vector>

#include "apps/classifier.h"
#include "apps/motion.h"
#include "comm/mpi_transport.h"
#include "io/raster.h"
#include "runtime/compass.h"

namespace {

using namespace compass;

apps::Image make_glyph(const char* rows[8]) {
  apps::Image img{};
  for (unsigned r = 0; r < 8; ++r) {
    for (unsigned c = 0; c < 16; ++c) {
      img[r * 16 + c] = rows[r][c] == '#';
    }
  }
  return img;
}

void character_recognition() {
  const char* glyph_t[8] = {"################", "################",
                            "......####......", "......####......",
                            "......####......", "......####......",
                            "......####......", "......####......"};
  const char* glyph_l[8] = {"####............", "####............",
                            "####............", "####............",
                            "####............", "####............",
                            "################", "################"};
  const char* glyph_o[8] = {"..############..", ".##############.",
                            "###..........###", "###..........###",
                            "###..........###", "###..........###",
                            ".##############.", "..############.."};
  const std::vector<apps::Image> templates = {
      make_glyph(glyph_t), make_glyph(glyph_l), make_glyph(glyph_o)};
  const char* names[] = {"T", "L", "O"};

  arch::Model model(1, 1);
  apps::PatternClassifier clf(model.core(0), templates);

  std::cout << "=== Character recognition (one core, crossbar templates) ===\n";
  arch::Tick tick = 0;
  for (std::size_t cls = 0; cls < templates.size(); ++cls) {
    const apps::Image noisy = apps::corrupt(templates[cls], 6, 42 + cls);
    const int got = clf.classify(noisy, tick++);
    std::cout << "\nNoisy '" << names[cls] << "' (6 pixels flipped):\n"
              << apps::render(noisy) << "  -> classified as "
              << (got >= 0 ? names[got] : "(no match)") << "\n";
  }
}

void motion_detection() {
  std::cout << "\n=== Motion detection (Reichardt coincidence cells) ===\n";
  for (const int direction : {+1, -1}) {
    arch::Model model(3, 2);
    apps::MotionDetectorOptions opt;
    opt.speed = 2;
    apps::MotionDetector det(model, 0, 1, 2, opt);

    const runtime::Partition part = runtime::Partition::uniform(3, 3, 1);
    comm::MpiTransport transport(3, comm::CommCostModel{});
    runtime::Compass sim(model, part, transport);
    io::RasterRecorder recorder(part.ranks());
    sim.attach(&recorder);

    // Sweep a spot across the retina at the tuned speed.
    const int start = direction > 0 ? 8 : 56;
    for (unsigned frame = 0; frame < 16; ++frame) {
      const arch::Tick when = 1 + 2 * static_cast<arch::Tick>(frame);
      while (sim.now() + arch::kMaxDelay < when) sim.step();
      det.stimulate(static_cast<unsigned>(start + direction * static_cast<int>(frame)),
                    when);
    }
    while (sim.now() < 40) sim.step();

    std::uint64_t right = 0, left = 0;
    for (const io::RasterEvent& e : recorder.raster().events()) {
      if (e.core != det.detector_core()) continue;
      (apps::MotionDetector::is_rightward(e.neuron) ? right : left) += 1;
    }
    std::cout << "  spot moving " << (direction > 0 ? "right" : "left ")
              << ": rightward cells fired " << right
              << ", leftward cells fired " << left << "\n";
  }
  std::cout << "  -> only the matching direction population responds.\n";
}

}  // namespace

int main() {
  character_recognition();
  motion_detection();
  return 0;
}
