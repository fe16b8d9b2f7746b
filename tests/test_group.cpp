#include <gtest/gtest.h>

#include <algorithm>

#include "oregami/group/cayley.hpp"
#include "oregami/group/perm_group.hpp"
#include "oregami/support/error.hpp"

namespace oregami {
namespace {

Permutation rotation(int n, int step) {
  std::vector<int> image(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    image[static_cast<std::size_t>(i)] = (i + step) % n;
  }
  return Permutation(std::move(image));
}

TEST(Permutation, IdentityFixesEverything) {
  const auto e = Permutation::identity(5);
  EXPECT_TRUE(e.is_identity());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(e(i), i);
  }
  EXPECT_EQ(e.order(), 1);
}

TEST(Permutation, RejectsNonBijection) {
  EXPECT_THROW(Permutation({0, 0, 1}), MappingError);
  EXPECT_THROW(Permutation({0, 3, 1}), MappingError);
}

TEST(Permutation, PaperCompositionConvention) {
  // Footnote 4: (123) composed with (13)(2) gives (12)(3) under
  // left-to-right composition.
  const auto a = Permutation::from_cycles(4, "(1 2 3)");
  const auto b = Permutation::from_cycles(4, "(1 3)(2)");
  const auto c = a.then(b);
  EXPECT_EQ(c, Permutation::from_cycles(4, "(1 2)(3)"));
}

TEST(Permutation, FromCyclesRoundTrip) {
  const auto p = Permutation::from_cycles(8, "(0 2 4 6)(1 3 5 7)");
  EXPECT_EQ(p(0), 2);
  EXPECT_EQ(p(6), 0);
  EXPECT_EQ(p(7), 1);
  EXPECT_EQ(p.to_cycle_string(), "(0 2 4 6)(1 3 5 7)");
}

TEST(Permutation, FromCyclesRejectsBadInput) {
  EXPECT_THROW(Permutation::from_cycles(4, "(0 9)"), MappingError);
  EXPECT_THROW(Permutation::from_cycles(4, "0 1"), MappingError);
  EXPECT_THROW(Permutation::from_cycles(4, "(0 1"), MappingError);
}

TEST(Permutation, InverseComposesToIdentity) {
  const auto p = Permutation::from_cycles(6, "(0 3)(1 4 5)");
  EXPECT_TRUE(p.then(p.inverse()).is_identity());
  EXPECT_TRUE(p.inverse().then(p).is_identity());
}

TEST(Permutation, CyclesIncludeFixedPoints) {
  const auto p = Permutation::from_cycles(4, "(0 1)");
  const auto cycles = p.cycles();
  ASSERT_EQ(cycles.size(), 3u);  // (0 1)(2)(3)
  EXPECT_EQ(p.to_cycle_string(), "(0 1)(2)(3)");
}

TEST(Permutation, CycleTypeAndUniformity) {
  const auto p = Permutation::from_cycles(8, "(0 2 4 6)(1 3 5 7)");
  EXPECT_EQ(p.cycle_type(), (std::vector<int>{4, 4}));
  EXPECT_TRUE(p.has_uniform_cycle_length());
  const auto q = Permutation::from_cycles(8, "(0 1 2)(3 4)");
  EXPECT_FALSE(q.has_uniform_cycle_length());
}

TEST(Permutation, OrderIsLcmOfCycleLengths) {
  EXPECT_EQ(Permutation::from_cycles(6, "(0 1 2)(3 4)").order(), 6);
  EXPECT_EQ(Permutation::from_cycles(8, "(0 1 2 3 4 5 6 7)").order(), 8);
}

// --- group generation ----------------------------------------------------

TEST(PermGroup, CyclicGroupZ8) {
  const auto group =
      PermutationGroup::generate({rotation(8, 1)}, 8);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->order(), 8u);
  EXPECT_TRUE(group->is_transitive());
  EXPECT_TRUE(group->acts_regularly());
  EXPECT_TRUE(group->element(0).is_identity());
}

TEST(PermGroup, EarlyAbortWhenGroupExceedsCutoff) {
  // (01) and the 4-rotation generate a group larger than 4 (dihedral
  // on 4 points has order 8); with cutoff 4 the generation aborts.
  const auto swap01 = Permutation::from_cycles(4, "(0 1)");
  const auto group = PermutationGroup::generate({swap01, rotation(4, 1)}, 4);
  EXPECT_FALSE(group.has_value());
}

TEST(PermGroup, SymmetricGroupS3) {
  const auto group = PermutationGroup::generate(
      {Permutation::from_cycles(3, "(0 1)"),
       Permutation::from_cycles(3, "(0 1 2)")},
      6);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->order(), 6u);
  // S3 is transitive on 3 points but does not act regularly (|G| != 3).
  EXPECT_TRUE(group->is_transitive());
  EXPECT_FALSE(group->acts_regularly());
}

TEST(PermGroup, ComposeAndInverseTables) {
  const auto group = PermutationGroup::generate({rotation(6, 1)}, 6);
  ASSERT_TRUE(group.has_value());
  for (std::size_t a = 0; a < group->order(); ++a) {
    EXPECT_EQ(group->compose(a, group->inverse(a)), 0u);
    EXPECT_EQ(group->compose(0, a), a);
    EXPECT_EQ(group->compose(a, 0), a);
  }
}

TEST(PermGroup, NonTransitiveNotRegular) {
  const auto group = PermutationGroup::generate(
      {Permutation::from_cycles(4, "(0 1)")}, 4);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->order(), 2u);
  EXPECT_FALSE(group->is_transitive());
  EXPECT_FALSE(group->acts_regularly());
}

TEST(PermGroup, ElementMappingBaseToEveryPoint) {
  const auto group = PermutationGroup::generate({rotation(5, 1)}, 5);
  ASSERT_TRUE(group.has_value());
  for (int x = 0; x < 5; ++x) {
    const auto g = group->element_mapping_base_to(x);
    EXPECT_EQ(group->element(g)(0), x);
  }
}

TEST(PermGroup, CyclicSubgroupsOfZ8) {
  const auto group = PermutationGroup::generate({rotation(8, 1)}, 8);
  ASSERT_TRUE(group.has_value());
  const auto subs = group->cyclic_subgroups();
  // Z8 has exactly one cyclic subgroup per divisor: sizes 1, 2, 4, 8.
  ASSERT_EQ(subs.size(), 4u);
  EXPECT_EQ(subs[0].size(), 1u);
  EXPECT_EQ(subs[1].size(), 2u);
  EXPECT_EQ(subs[2].size(), 4u);
  EXPECT_EQ(subs[3].size(), 8u);
  for (const auto& sub : subs) {
    EXPECT_TRUE(group->is_normal(sub));  // abelian: all normal
  }
}

TEST(PermGroup, RightCosetsPartitionEvenly) {
  const auto group = PermutationGroup::generate({rotation(8, 1)}, 8);
  ASSERT_TRUE(group.has_value());
  const auto subs = group->cyclic_subgroups();
  const auto& h = subs[1];  // order 2
  const auto cosets = group->right_cosets(h);
  std::vector<int> sizes(4, 0);
  for (const int c : cosets) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 4);
    ++sizes[static_cast<std::size_t>(c)];
  }
  for (const int s : sizes) {
    EXPECT_EQ(s, 2);
  }
  EXPECT_EQ(cosets[0], 0);  // identity's coset is 0
}

TEST(PermGroup, NonNormalSubgroupDetected) {
  const auto group = PermutationGroup::generate(
      {Permutation::from_cycles(3, "(0 1)"),
       Permutation::from_cycles(3, "(0 1 2)")},
      6);
  ASSERT_TRUE(group.has_value());
  // <(01)> has order 2 and is not normal in S3.
  const auto idx = group->index_of(Permutation::from_cycles(3, "(0 1)"));
  ASSERT_TRUE(idx.has_value());
  const auto sub = group->cyclic_subgroup(*idx);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_FALSE(group->is_normal(sub));
  // The alternating subgroup <(012)> of index 2 is normal.
  const auto rot = group->index_of(Permutation::from_cycles(3, "(0 1 2)"));
  ASSERT_TRUE(rot.has_value());
  EXPECT_TRUE(group->is_normal(group->cyclic_subgroup(*rot)));
}

TEST(PermGroup, SubgroupClosureGeneratesKlein) {
  const auto a = Permutation::from_cycles(4, "(0 1)(2 3)");
  const auto b = Permutation::from_cycles(4, "(0 2)(1 3)");
  const auto group = PermutationGroup::generate({a, b}, 4);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->order(), 4u);
  EXPECT_TRUE(group->acts_regularly());  // Klein group acts regularly
  const auto all = group->all_subgroups();
  // Klein four-group: {e}, three order-2 subgroups, itself.
  EXPECT_EQ(all.size(), 5u);
}

// --- Cayley graphs --------------------------------------------------------

TEST(Cayley, QuotientCollapsesToCosets) {
  const auto group = PermutationGroup::generate({rotation(8, 1)}, 8);
  ASSERT_TRUE(group.has_value());
  const auto subs = group->cyclic_subgroups();
  const auto cosets = group->right_cosets(subs[1]);  // order-2 subgroup
  const auto q = quotient_cayley_graph(*group, cosets);
  EXPECT_EQ(q.num_nodes, 4);
  // Quotient of Z8 by {0,4} is Z4: the +1 generator induces a 4-cycle.
  EXPECT_EQ(q.edges.size(), 4u);
}

}  // namespace
}  // namespace oregami
