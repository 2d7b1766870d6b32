// Tests for the application layer: template-matching classification and
// Reichardt motion detection — both have exactly checkable behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/classifier.h"
#include "apps/motion.h"
#include "comm/mpi_transport.h"
#include "io/raster.h"
#include "runtime/compass.h"

namespace compass::apps {
namespace {

// --- Classifier -------------------------------------------------------------

Image glyph(std::initializer_list<unsigned> on_pixels) {
  Image img{};
  for (unsigned i : on_pixels) img[i] = true;
  return img;
}

/// Three visually distinct 16x8 glyphs (rows of 16 pixels).
std::vector<Image> letter_templates() {
  Image bar_top{}, bar_bottom{}, checker{};
  for (unsigned col = 0; col < 16; ++col) {
    bar_top[col] = bar_top[16 + col] = true;           // rows 0-1
    bar_bottom[96 + col] = bar_bottom[112 + col] = true;  // rows 6-7
  }
  for (unsigned i = 0; i < kImagePixels; ++i) checker[i] = (i % 2) == 0;
  return {bar_top, bar_bottom, checker};
}

TEST(Classifier, RejectsOversizedConfiguration) {
  arch::Model model(1, 0);
  std::vector<Image> templates(65);  // 65 x 4 > 256 neurons
  EXPECT_THROW(PatternClassifier(model.core(0), templates),
               std::invalid_argument);
  EXPECT_THROW(
      PatternClassifier(model.core(0), std::span<const Image>{}),
      std::invalid_argument);
}

TEST(Classifier, CleanTemplatesClassifyToThemselves) {
  arch::Model model(1, 0);
  const auto templates = letter_templates();
  PatternClassifier clf(model.core(0), templates);
  for (std::size_t cls = 0; cls < templates.size(); ++cls) {
    EXPECT_EQ(clf.classify(templates[cls], static_cast<arch::Tick>(cls)),
              static_cast<int>(cls));
  }
}

TEST(Classifier, ToleratesModerateNoise) {
  arch::Model model(1, 0);
  const auto templates = letter_templates();
  PatternClassifier clf(model.core(0), templates);
  int correct = 0, trials = 0;
  for (std::size_t cls = 0; cls < templates.size(); ++cls) {
    for (unsigned seed = 0; seed < 10; ++seed) {
      const Image noisy = corrupt(templates[cls], /*flips=*/4, seed);
      ++trials;
      if (clf.classify(noisy, static_cast<arch::Tick>(trials)) ==
          static_cast<int>(cls)) {
        ++correct;
      }
    }
  }
  EXPECT_GE(correct * 10, trials * 8);  // >= 80% under 4-pixel noise
}

TEST(Classifier, GarbageMatchesNothing) {
  arch::Model model(1, 0);
  const auto templates = letter_templates();
  PatternClassifier clf(model.core(0), templates);
  Image blank{};
  EXPECT_EQ(clf.classify(blank), -1);
  // All-on image: mismatch penalties beat every template.
  Image full{};
  for (auto& p : full) p = true;
  EXPECT_EQ(clf.classify(full, 1), -1);
}

TEST(Classifier, ClassOfNeuronMapsCopies) {
  arch::Model model(1, 0);
  const auto templates = letter_templates();
  ClassifierOptions opt;
  opt.neurons_per_class = 8;
  PatternClassifier clf(model.core(0), templates, opt);
  EXPECT_EQ(clf.class_of_neuron(0), 0);
  EXPECT_EQ(clf.class_of_neuron(7), 0);
  EXPECT_EQ(clf.class_of_neuron(8), 1);
  EXPECT_EQ(clf.class_of_neuron(23), 2);
  EXPECT_EQ(clf.class_of_neuron(24), -1);  // beyond the last class
}

TEST(Classifier, RenderAndCorruptHelpers) {
  const Image img = glyph({0, 17, 127});
  const std::string art = render(img);
  EXPECT_NE(art.find('#'), std::string::npos);
  const Image flipped = corrupt(img, 1, 3);
  int diff = 0;
  for (unsigned i = 0; i < kImagePixels; ++i) {
    if (img[i] != flipped[i]) ++diff;
  }
  EXPECT_EQ(diff, 1);
}

// --- Motion detection ---------------------------------------------------------

struct MotionHarness {
  arch::Model model{3, 0};
  std::unique_ptr<MotionDetector> det;
  runtime::Partition part = runtime::Partition::uniform(3, 3, 1);
  comm::MpiTransport transport{3, comm::CommCostModel{}};
  io::RasterRecorder recorder{3};
  std::unique_ptr<runtime::Compass> sim;

  explicit MotionHarness(unsigned speed = 2) {
    MotionDetectorOptions opt;
    opt.speed = speed;
    det = std::make_unique<MotionDetector>(model, 0, 1, 2, opt);
    sim = std::make_unique<runtime::Compass>(model, part, transport);
    sim->attach(&recorder);
  }

  /// Spikes fired so far by the detector's rightward or leftward cells.
  std::uint64_t detector_spikes(bool rightward) const {
    std::uint64_t n = 0;
    for (const io::RasterEvent& e : recorder.raster().events()) {
      if (e.core == det->detector_core() &&
          MotionDetector::is_rightward(e.neuron) == rightward) {
        ++n;
      }
    }
    return n;
  }
  std::uint64_t right_spikes() const { return detector_spikes(true); }
  std::uint64_t left_spikes() const { return detector_spikes(false); }

  /// Sweep a spot across the retina: pixel p0 + step*k at tick 1 + speed*k.
  void sweep(int p0, int step, unsigned speed, unsigned frames) {
    for (unsigned k = 0; k < frames; ++k) {
      const int pixel = p0 + step * static_cast<int>(k);
      const arch::Tick when = 1 + static_cast<arch::Tick>(speed) * k;
      // Stimuli within the 15-tick injection horizon are scheduled before
      // the run; the rest are injected as the simulation reaches them.
      while (sim->now() + arch::kMaxDelay < when) sim->step();
      det->stimulate(static_cast<unsigned>(pixel), when);
    }
  }
};

TEST(Motion, RightwardSweepFiresOnlyRightCells) {
  MotionHarness h(/*speed=*/2);
  h.sweep(/*p0=*/10, /*step=*/+1, /*speed=*/2, /*frames=*/12);
  while (h.sim->now() < 40) h.sim->step();
  EXPECT_GT(h.right_spikes(), 5u);
  EXPECT_EQ(h.left_spikes(), 0u);
}

TEST(Motion, LeftwardSweepFiresOnlyLeftCells) {
  MotionHarness h(2);
  h.sweep(40, -1, 2, 12);
  while (h.sim->now() < 40) h.sim->step();
  EXPECT_GT(h.left_spikes(), 5u);
  EXPECT_EQ(h.right_spikes(), 0u);
}

TEST(Motion, WrongSpeedIsRejected) {
  // A sweep at half the tuned speed produces no coincidences.
  MotionHarness h(/*speed=*/4);
  h.sweep(10, +1, /*speed=*/1, 12);
  while (h.sim->now() < 40) h.sim->step();
  EXPECT_EQ(h.right_spikes(), 0u);
  EXPECT_EQ(h.left_spikes(), 0u);
}

TEST(Motion, StaticFlickerIsIgnored) {
  MotionHarness h(2);
  for (unsigned k = 0; k < 10; ++k) {
    h.det->stimulate(20, 1 + 2 * k);
    while (h.sim->now() + arch::kMaxDelay < 1 + 2 * (k + 1)) h.sim->step();
  }
  while (h.sim->now() < 30) h.sim->step();
  EXPECT_EQ(h.right_spikes(), 0u);
  EXPECT_EQ(h.left_spikes(), 0u);
}

TEST(Motion, ValidatesConfiguration) {
  arch::Model model(3, 0);
  MotionDetectorOptions bad;
  bad.speed = 0;
  EXPECT_THROW(MotionDetector(model, 0, 1, 2, bad), std::invalid_argument);
  bad.speed = 15;
  EXPECT_THROW(MotionDetector(model, 0, 1, 2, bad), std::invalid_argument);
  MotionDetectorOptions ok;
  EXPECT_THROW(MotionDetector(model, 0, 0, 2, ok), std::invalid_argument);
}

TEST(Motion, StimulateValidatesPixel) {
  arch::Model model(3, 0);
  MotionDetector det(model, 0, 1, 2);
  EXPECT_THROW(det.stimulate(kRetinaPixels, 1), std::out_of_range);
}

}  // namespace
}  // namespace compass::apps
