// Hash-consed canonical labels (src/labels/intern.h): interned construction
// must be semantically invisible — every operation agrees extensionally with
// the reference pointwise semantics — while extensionally equal completed
// constructions share one canonical rep with one stable id, and mutation can
// never corrupt a canonical rep or resurrect a stale id.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/labels/intern.h"
#include "src/labels/label.h"
#include "src/store/label_codec.h"

namespace asbestos {
namespace {

// Builds a label through the interned bulk path (sorted entries).
Label BuildInterned(const std::vector<std::pair<uint64_t, Level>>& entries, Level def) {
  LabelBuilder builder(def);
  for (const auto& [h, l] : entries) {
    if (l != def) {
      builder.Append(Handle::FromValue(h), l);
    }
  }
  return builder.Build();
}

class LabelInternPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { rng_ = std::make_unique<Rng>(GetParam()); }

  Level RandomLevel() { return static_cast<Level>(rng_->NextBelow(5)); }

  // Random sorted entry list over a shared pool (overlaps are common).
  std::vector<std::pair<uint64_t, Level>> RandomEntries(uint64_t max_entries) {
    std::vector<std::pair<uint64_t, Level>> out;
    const uint64_t n = rng_->NextBelow(max_entries + 1);
    uint64_t h = 0;
    for (uint64_t i = 0; i < n; ++i) {
      h += rng_->NextInRange(1, 5);
      out.emplace_back(h, RandomLevel());
    }
    return out;
  }

  // The same label built two ways: interned bulk path and mutable Set path.
  std::pair<Label, Label> RandomLabelBothWays(uint64_t max_entries = 25) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(max_entries);
    Label by_set(def);
    for (const auto& [h, l] : entries) {
      by_set.Set(Handle::FromValue(h), l);
    }
    return {BuildInterned(entries, def), by_set};
  }

  std::unique_ptr<Rng> rng_;
};

TEST_P(LabelInternPropertyTest, InternedConstructionMatchesMutableConstruction) {
  for (int t = 0; t < 80; ++t) {
    const auto [interned, by_set] = RandomLabelBothWays();
    interned.CheckRep();
    EXPECT_TRUE(interned.Equals(by_set));
    EXPECT_TRUE(interned.rep_canonical());
    for (uint64_t h = 1; h <= 130; ++h) {
      EXPECT_EQ(interned.Get(Handle::FromValue(h)), by_set.Get(Handle::FromValue(h)));
    }
  }
}

TEST_P(LabelInternPropertyTest, EqualConstructionsShareOneCanonicalRep) {
  for (int t = 0; t < 80; ++t) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(25);
    const Label a = BuildInterned(entries, def);
    const Label b = BuildInterned(entries, def);
    EXPECT_EQ(a.rep_id(), b.rep_id()) << "twin builds must hash-cons to one rep";
    EXPECT_TRUE(a.rep_canonical());
    // And an unequal build must not share.
    auto other = entries;
    other.emplace_back((other.empty() ? 0 : other.back().first) + 1,
                       def == Level::kL3 ? Level::kStar : Level::kL3);
    const Label c = BuildInterned(other, def);
    EXPECT_NE(a.rep_id(), c.rep_id());
    EXPECT_FALSE(a.Equals(c));
  }
}

TEST_P(LabelInternPropertyTest, InternedAlgebraMatchesNaivePointwise) {
  // Lub/Glb/StarsOnly/Leq over interned operands: the interned results must
  // be extensionally identical to the reference pointwise semantics, and
  // repeating the operation must return the SAME canonical rep.
  for (int t = 0; t < 60; ++t) {
    const Label a = BuildInterned(RandomEntries(20), RandomLevel());
    const Label b = BuildInterned(RandomEntries(20), RandomLevel());
    const Label join = Label::Lub(a, b);
    const Label meet = Label::Glb(a, b);
    const Label stars = a.StarsOnly();
    join.CheckRep();
    meet.CheckRep();
    stars.CheckRep();
    bool leq_pointwise = true;
    for (uint64_t h = 0; h <= 120; ++h) {
      const Handle hh = Handle::FromValue(h == 0 ? 9999 : h);
      EXPECT_EQ(join.Get(hh), LevelMax(a.Get(hh), b.Get(hh)));
      EXPECT_EQ(meet.Get(hh), LevelMin(a.Get(hh), b.Get(hh)));
      EXPECT_EQ(stars.Get(hh),
                a.Get(hh) == Level::kStar ? Level::kStar : Level::kL3);
      leq_pointwise = leq_pointwise && LevelLeq(a.Get(hh), b.Get(hh));
    }
    EXPECT_EQ(a.Leq(b), leq_pointwise && LevelLeq(a.default_level(), b.default_level()));
    // Determinism of identity: same operands, same canonical result rep.
    EXPECT_EQ(Label::Lub(a, b).rep_id(), join.rep_id());
    EXPECT_EQ(Label::Glb(a, b).rep_id(), meet.rep_id());
    EXPECT_EQ(a.StarsOnly().rep_id(), stars.rep_id());
  }
}

TEST_P(LabelInternPropertyTest, MutationUnsharesAndRekeys) {
  for (int t = 0; t < 60; ++t) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(20);
    const Label canonical = BuildInterned(entries, def);
    const uint64_t canonical_id = canonical.rep_id();
    Label mutated = canonical;
    const Level l = RandomLevel();
    const Handle h = Handle::FromValue(rng_->NextInRange(1, 100));
    mutated.Set(h, l);
    // The canonical label is immutable: the copy diverged, it did not.
    EXPECT_EQ(canonical.rep_id(), canonical_id);
    EXPECT_EQ(canonical.Get(h), BuildInterned(entries, def).Get(h));
    canonical.CheckRep();
    mutated.CheckRep();
    if (mutated.Get(h) != canonical.Get(h)) {
      EXPECT_NE(mutated.rep_id(), canonical_id);
      EXPECT_FALSE(mutated.rep_canonical());
      // Every further in-place mutation retires the previous snapshot id.
      const uint64_t before = mutated.rep_id();
      mutated.Set(h, mutated.Get(h) == Level::kL3 ? Level::kStar : Level::kL3);
      EXPECT_NE(mutated.rep_id(), before);
    }
  }
}

TEST_P(LabelInternPropertyTest, ParseAndUnpickleLandOnTheCanonicalRep) {
  for (int t = 0; t < 40; ++t) {
    const Label original = BuildInterned(RandomEntries(20), RandomLevel());
    Label parsed;
    ASSERT_TRUE(Label::Parse(original.ToString(), &parsed));
    EXPECT_EQ(parsed.rep_id(), original.rep_id()) << original.ToString();

    Label unpickled;
    ASSERT_EQ(codec::UnpickleLabel(codec::PickleLabel(original), &unpickled), Status::kOk);
    EXPECT_EQ(unpickled.rep_id(), original.rep_id());
  }
}

TEST_P(LabelInternPropertyTest, EqualsFastPathsAgreeWithEntryWalk) {
  // Shared-chunk and canonical-id shortcuts must never change the verdict.
  for (int t = 0; t < 60; ++t) {
    const auto [interned, by_set] = RandomLabelBothWays();
    EXPECT_TRUE(interned.Equals(by_set));
    EXPECT_TRUE(by_set.Equals(interned));
    // COW copy diverged in (at most) one chunk: remaining chunks stay shared.
    Label copy = by_set;
    const Handle h = Handle::FromValue(rng_->NextInRange(1, 100));
    const Level old = copy.Get(h);
    const Level changed = old == Level::kL3 ? Level::kStar : Level::kL3;
    copy.Set(h, changed);
    EXPECT_FALSE(copy.Equals(by_set));
    copy.Set(h, old);
    EXPECT_TRUE(copy.Equals(by_set));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelInternPropertyTest,
                         ::testing::Values(2ULL, 11ULL, 77ULL, 4096ULL, 123456789ULL));

// --- Maintained structural hash --------------------------------------------
// Every rep carries its additive structural hash (intern.h), updated by Set
// and copied by COW clones; CheckRep recomputes it. These walks drive random
// histories through every mutation path and check, after each step, that
// the hash is exact and that Canonicalize lands on the same canonical rep a
// flat LabelBuilder construction of the same content does.

// Reference model: a default level plus explicit entries.
struct LabelModel {
  Level def = Level::kL1;
  std::map<uint64_t, Level> entries;

  Level Get(uint64_t h) const {
    auto it = entries.find(h);
    return it == entries.end() ? def : it->second;
  }
  void Set(uint64_t h, Level l) {
    if (l == def) {
      entries.erase(h);
    } else {
      entries[h] = l;
    }
  }
  static LabelModel Merge(const LabelModel& a, const LabelModel& b, bool join) {
    const auto pick = [join](Level x, Level y) { return join ? LevelMax(x, y) : LevelMin(x, y); };
    LabelModel out;
    out.def = pick(a.def, b.def);
    for (const auto* side : {&a, &b}) {
      for (const auto& [h, l] : side->entries) {
        out.Set(h, pick(a.Get(h), b.Get(h)));
      }
    }
    return out;
  }
};

Label RebuildFlat(const Label& label) {
  LabelBuilder builder(label.default_level());
  for (Label::EntryIter it = label.IterateEntries(); !it.done(); it.Advance()) {
    builder.Append(it.handle(), it.level());
  }
  return builder.Build();
}

class LabelHashWalkTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr uint64_t kHandlePool = 6000;
  static constexpr size_t kMaxEntries = 5000;

  void SetUp() override { rng_ = std::make_unique<Rng>(GetParam()); }

  Level RandomLevel() { return static_cast<Level>(rng_->NextBelow(5)); }

  // A random operand: small (the asymmetric merge paths) or up to 5,000
  // entries, built through the flat builder or through Set.
  std::pair<Label, LabelModel> RandomOperand() {
    LabelModel model;
    model.def = RandomLevel();
    const uint64_t n = rng_->NextBool() ? rng_->NextBelow(25) : rng_->NextBelow(kMaxEntries + 1);
    // Distinct handles spread over the pool, none at the default level.
    const uint64_t stride = std::max<uint64_t>(1, kHandlePool / std::max<uint64_t>(n, 1));
    uint64_t h = rng_->NextInRange(1, stride);
    for (uint64_t i = 0; i < n && h <= kHandlePool; ++i, h += rng_->NextInRange(1, stride)) {
      model.Set(h, static_cast<Level>((LevelOrdinal(model.def) + rng_->NextInRange(1, 4)) % 5));
    }
    if (rng_->NextBool()) {
      LabelBuilder builder(model.def);
      for (const auto& [h, l] : model.entries) {
        builder.Append(Handle::FromValue(h), l);
      }
      return {builder.Build(), model};
    }
    Label label(model.def);
    for (const auto& [h, l] : model.entries) {
      label.Set(Handle::FromValue(h), l);
    }
    return {label, model};
  }

  static void ExpectMatchesModel(const Label& label, const LabelModel& model) {
    ASSERT_EQ(label.default_level(), model.def);
    ASSERT_EQ(label.entry_count(), model.entries.size());
    auto it = model.entries.begin();
    for (Label::EntryIter e = label.IterateEntries(); !e.done(); e.Advance(), ++it) {
      ASSERT_EQ(e.handle().value(), it->first);
      ASSERT_EQ(e.level(), it->second);
    }
  }

  // Canonicalizes a copy: charged work and bulk hashing must not move, and
  // the result must be the rep a flat build of the same content shares.
  static void ExpectCanonicalAgrees(const Label& label) {
    Label copy = label;
    const LabelWorkStats work = GetLabelWorkStats();
    const uint64_t hashed = GetLabelInternStats().entries_hashed;
    copy.Canonicalize();
    EXPECT_EQ(GetLabelWorkStats().ops, work.ops);
    EXPECT_EQ(GetLabelWorkStats().entries_visited, work.entries_visited);
    EXPECT_EQ(GetLabelWorkStats().fast_path_hits, work.fast_path_hits);
    EXPECT_EQ(GetLabelInternStats().entries_hashed, hashed) << "Canonicalize re-hashed entries";
    copy.CheckRep();
    EXPECT_TRUE(copy.rep_canonical());
    EXPECT_TRUE(copy.Equals(label));
    EXPECT_EQ(copy.rep_id(), RebuildFlat(label).rep_id());
    if (label.entry_count() == 0) {
      EXPECT_EQ(copy.rep_id(), Label(label.default_level()).rep_id());
    }
  }

  std::unique_ptr<Rng> rng_;
};

TEST_P(LabelHashWalkTest, HashStaysExactAcrossRandomHistories) {
  auto [cur, model] = RandomOperand();
  size_t max_seen = 0;
  int emptied = 0;
  int set_into_big = 0;
  for (int step = 0; step < 200; ++step) {
    const uint64_t op = rng_->NextBelow(8);
    if (op <= 1) {
      // Set burst: inserts, overwrites and removals (setting the default).
      if (cur.entry_count() > 64) {
        ++set_into_big;  // inserts into packed 64-entry chunks split them
      }
      const uint64_t n = rng_->NextInRange(1, 120);
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t h = rng_->NextInRange(1, kHandlePool);
        const Level l = rng_->NextBelow(3) == 0 ? model.def : RandomLevel();
        cur.Set(Handle::FromValue(h), l);
        model.Set(h, l);
      }
    } else if (op == 2) {
      // Empty the label back to its default, one removal at a time.
      emptied += model.entries.empty() ? 0 : 1;
      for (const auto& [h, l] : model.entries) {
        cur.Set(Handle::FromValue(h), model.def);
      }
      model.entries.clear();
    } else if (op == 7) {
      std::tie(cur, model) = RandomOperand();  // fresh start, fresh default
    } else {
      const auto [other, other_model] = RandomOperand();
      const bool join = op == 3 || op == 5;
      if (op == 3) {
        cur.JoinInPlace(other);
      } else if (op == 4) {
        cur.MeetInPlace(other);
      } else if (op == 5) {
        cur = Label::Lub(cur, other);
      } else {
        cur = Label::Glb(cur, other);
      }
      model = LabelModel::Merge(model, other_model, join);
    }
    max_seen = std::max(max_seen, cur.entry_count());
    cur.CheckRep();
    ExpectMatchesModel(cur, model);
    if (rng_->NextBool()) {
      // Half the time: leave the rep private so later Sets mutate in place.
      ExpectCanonicalAgrees(cur);
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << GetParam() << " step " << step << " op " << op;
    }
  }
  // The walk must actually cover the shapes it claims to.
  EXPECT_GE(max_seen, 4000u);
  EXPECT_GE(emptied, 1);
  EXPECT_GE(set_into_big, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelHashWalkTest, ::testing::Values(3ULL, 29ULL, 2718ULL));

TEST(LabelInternTest, CanonicalizeHashesNoEntries) {
  Label l(Level::kL1);
  for (uint64_t i = 1; i <= 3000; ++i) {
    l.Set(Handle::FromValue(i * 5), i % 2 == 0 ? Level::kStar : Level::kL3);
  }
  const uint64_t hashed = GetLabelInternStats().entries_hashed;
  l.Canonicalize();
  EXPECT_EQ(GetLabelInternStats().entries_hashed, hashed);
  EXPECT_TRUE(l.rep_canonical());
  // The flat path hashes each entry once and lands on the same rep.
  const Label twin = RebuildFlat(l);
  EXPECT_EQ(GetLabelInternStats().entries_hashed, hashed + 3000);
  EXPECT_EQ(twin.rep_id(), l.rep_id());
}

TEST(LabelInternTest, DedupCountersAndMemory) {
  ResetLabelInternStats();
  const LabelMemStats& mem = GetLabelMemStats();
  const LabelInternStats& stats = GetLabelInternStats();
  int64_t canonical_with_label = 0;

  {
    LabelBuilder builder(Level::kL1);
    for (uint64_t i = 1; i <= 200; ++i) {
      builder.Append(Handle::FromValue(i * 3), Level::kL3);
    }
    const Label first = builder.Build();
    EXPECT_GE(stats.misses, 1u);
    canonical_with_label = stats.live_canonical;
    const uint64_t hits_before = stats.hits;
    const int64_t live_before = mem.live_bytes;

    // 50 more builds of the same label: zero new label heap, one hit each.
    std::vector<Label> copies;
    for (int i = 0; i < 50; ++i) {
      LabelBuilder b(Level::kL1);
      for (uint64_t h = 1; h <= 200; ++h) {
        b.Append(Handle::FromValue(h * 3), Level::kL3);
      }
      copies.push_back(b.Build());
      EXPECT_EQ(copies.back().rep_id(), first.rep_id());
    }
    EXPECT_EQ(stats.hits, hits_before + 50);
    EXPECT_EQ(mem.live_bytes, live_before) << "deduped builds must not allocate";
    EXPECT_EQ(stats.bytes_saved, 50 * first.heap_bytes());
  }

  // Dropping every owner unregisters the canonical rep: interning holds
  // weak references and never pins dead labels.
  EXPECT_EQ(stats.live_canonical, canonical_with_label - 1);
}

TEST(LabelInternTest, EmptyLabelsSharePerLevelSingletons) {
  LabelBuilder builder(Level::kL2);
  const Label built = builder.Build();
  const Label direct(Level::kL2);
  EXPECT_EQ(built.rep_id(), direct.rep_id());
  EXPECT_TRUE(built.rep_canonical());
}

// The kernel's receive/send labels mutate in place on every contamination;
// routing the merged result through the intern table means equal label
// HISTORIES converge to one rep id — the key the flow-check cache needs to
// keep hitting on steady-state traffic (ROADMAP: live-path hit rate).
TEST(LabelInternTest, JoinInPlaceCanonicalizesTheMergedResult) {
  // Big ⋆-rich label (an OKWS server's send label shape) joined with a
  // small contamination label: the asymmetric merge path runs, which used
  // to leave a private rep with a fresh id per call.
  const auto big_entries = [] {
    std::vector<std::pair<uint64_t, Level>> out;
    for (uint64_t i = 1; i <= 400; ++i) {
      out.emplace_back(i * 7, Level::kStar);
    }
    return out;
  }();
  const Label contam({{Handle::FromValue(5), Level::kL3}}, Level::kStar);

  Label a = BuildInterned(big_entries, Level::kL1);
  a.JoinInPlace(contam);
  EXPECT_TRUE(a.rep_canonical());

  // An independently rebuilt history lands on the SAME canonical rep.
  Label b = BuildInterned(big_entries, Level::kL1);
  b.JoinInPlace(Label({{Handle::FromValue(5), Level::kL3}}, Level::kStar));
  EXPECT_EQ(a.rep_id(), b.rep_id());

  // And the semantics are the pointwise reference, unchanged.
  EXPECT_EQ(a.Get(Handle::FromValue(5)), Level::kL3);
  EXPECT_EQ(a.Get(Handle::FromValue(7)), Level::kStar);
  EXPECT_EQ(a.Get(Handle::FromValue(9999991)), Level::kL1);
  a.CheckRep();
}

TEST(LabelInternTest, MeetInPlaceCanonicalizesTheMergedResult) {
  const auto entries = [] {
    std::vector<std::pair<uint64_t, Level>> out;
    for (uint64_t i = 1; i <= 300; ++i) {
      out.emplace_back(i * 3, Level::kL3);
    }
    return out;
  }();
  const Label ds({{Handle::FromValue(6), Level::kL0}}, Level::kL3);
  Label a = BuildInterned(entries, Level::kL2);
  a.MeetInPlace(ds);
  EXPECT_TRUE(a.rep_canonical());
  Label b = BuildInterned(entries, Level::kL2);
  b.MeetInPlace(Label({{Handle::FromValue(6), Level::kL0}}, Level::kL3));
  EXPECT_EQ(a.rep_id(), b.rep_id());
  EXPECT_EQ(a.Get(Handle::FromValue(6)), Level::kL0);
}

TEST(LabelInternTest, CanonicalizeRegistersAPrivateRepWithoutCopying) {
  Label l(Level::kL1);
  for (uint64_t i = 1; i <= 40; ++i) {
    l.Set(Handle::FromValue(i * 11), Level::kL2);  // Set path: private rep
  }
  ASSERT_FALSE(l.rep_canonical());
  const uint64_t heap_before = GetLabelMemStats().live_bytes;
  l.Canonicalize();
  EXPECT_TRUE(l.rep_canonical());
  // No twin existed, so the rep itself was adopted: no new heap.
  EXPECT_EQ(GetLabelMemStats().live_bytes, heap_before);
  // A later equal construction now dedups onto it.
  LabelBuilder builder(Level::kL1);
  for (uint64_t i = 1; i <= 40; ++i) {
    builder.Append(Handle::FromValue(i * 11), Level::kL2);
  }
  const Label twin = builder.Build();
  EXPECT_EQ(twin.rep_id(), l.rep_id());
  // Mutating the (now canonical) label clones first — the registered rep
  // stays immutable and the mutated copy re-keys.
  Label mutated = l;
  mutated.Set(Handle::FromValue(1), Level::kL3);
  EXPECT_NE(mutated.rep_id(), l.rep_id());
  EXPECT_TRUE(l.rep_canonical());
  l.CheckRep();
  mutated.CheckRep();
}

}  // namespace
}  // namespace asbestos
