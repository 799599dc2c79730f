// SymbolTable::match over real inventories: every built-in application plus
// svcapp.  A literal pattern is answered by name lookup, a wildcard pattern
// by globbing the table; both must agree with a brute-force glob over every
// name, which is what match() computed for every pattern before the literal
// shortcut.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asci/app.hpp"
#include "service/scenario.hpp"
#include "support/strings.hpp"

namespace dyntrace::service {
namespace {

std::vector<image::FunctionId> brute_force(const image::SymbolTable& table,
                                           const std::string& pattern) {
  std::vector<image::FunctionId> out;
  for (const image::FunctionInfo& f : table.all()) {
    if (str::glob_match(pattern, f.name)) out.push_back(f.id);
  }
  return out;
}

void check_table(const image::SymbolTable& table) {
  ASSERT_GT(table.size(), 0u);
  for (const image::FunctionInfo& f : table.all()) {
    EXPECT_EQ(table.match(f.name), (std::vector<image::FunctionId>{f.id})) << f.name;
    EXPECT_TRUE(table.match(f.name + "_missing").empty()) << f.name;
    EXPECT_TRUE(table.match("x" + f.name).empty()) << f.name;
    // Wildcard patterns derived from the name: a prefix glob, a suffix
    // glob, and the name with its middle character made a '?'.
    const std::string prefix = f.name.substr(0, (f.name.size() + 1) / 2) + "*";
    const std::string suffix = "*" + f.name.substr(f.name.size() / 2);
    std::string single = f.name;
    single[single.size() / 2] = '?';
    for (const std::string& pattern : {prefix, suffix, single}) {
      EXPECT_EQ(table.match(pattern), brute_force(table, pattern)) << pattern;
    }
  }
  for (const std::string pattern : {"*", "?", "*_*", "MPI_*", "svc_fn_1*", "hypre_*",
                                    "*x*", "", "main?", "?ain"}) {
    EXPECT_EQ(table.match(pattern), brute_force(table, pattern)) << pattern;
  }
}

TEST(SymbolMatch, BuiltInApplications) {
  for (const asci::AppSpec* app : asci::all_apps()) {
    SCOPED_TRACE(app->name);
    check_table(*app->symbols);
  }
  SCOPED_TRACE("sweep3d_hybrid");
  check_table(*asci::sweep3d_hybrid().symbols);
}

TEST(SymbolMatch, Svcapp) {
  for (const int functions : {1, 32, 120}) {
    SCOPED_TRACE(functions);
    check_table(*make_svcapp(functions).symbols);
  }
}

}  // namespace
}  // namespace dyntrace::service
