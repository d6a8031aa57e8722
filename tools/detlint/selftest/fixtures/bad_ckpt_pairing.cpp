// detlint selftest fixture: every violation here is deliberate.
// Seeded violation: ckpt-pairing (a SavedState field serialized on the
// save path but never restored — the "field added to saveState but not
// restoreState" acceptance case). This TU is never compiled by the main
// build.

#include <cstdint>

class Meter {
 public:
  struct SavedState {
    std::uint64_t ticks = 0;
    std::uint64_t drops = 0;
    // VIOLATION: added to saveState below but never restored.
    std::uint64_t spikes = 0;
  };

  SavedState saveState() const {
    SavedState s;
    s.ticks = ticks_;
    s.drops = drops_;
    s.spikes = spikes_;
    return s;
  }

  void restoreState(const SavedState& s) {
    ticks_ = s.ticks;
    drops_ = s.drops;
    // spikes_ forgotten — the lint must notice.
  }

 private:
  std::uint64_t ticks_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t spikes_ = 0;
};
