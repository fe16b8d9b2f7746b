#include "oregami/metrics/render.hpp"

#include <algorithm>

#include "oregami/support/text_table.hpp"

namespace oregami {

namespace {

const char* kDotColors[] = {"red",    "blue",   "forestgreen", "orange",
                            "purple", "brown",  "deeppink",    "cadetblue",
                            "gold3",  "gray40", "cyan4",       "magenta3"};

std::vector<std::vector<int>> tasks_by_proc(
    const TaskGraph& graph, const std::vector<int>& proc_of_task,
    int num_procs) {
  std::vector<std::vector<int>> result(
      static_cast<std::size_t>(num_procs));
  for (int t = 0; t < graph.num_tasks(); ++t) {
    result[static_cast<std::size_t>(
               proc_of_task[static_cast<std::size_t>(t)])]
        .push_back(t);
  }
  return result;
}

}  // namespace

std::string render_assignment_table(const TaskGraph& graph,
                                    const std::vector<int>& proc_of_task,
                                    const Topology& topo) {
  const auto by_proc =
      tasks_by_proc(graph, proc_of_task, topo.num_procs());
  const std::vector<std::int64_t> weight = graph.exec_weights();
  TextTable table({"proc", "label", "#tasks", "tasks", "exec load"});
  for (int p = 0; p < topo.num_procs(); ++p) {
    const auto& tasks = by_proc[static_cast<std::size_t>(p)];
    std::string names;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (i != 0) {
        names += " ";
      }
      names += graph.task_name(tasks[i]);
    }
    std::int64_t load = 0;
    for (const int t : tasks) {
      load += weight[static_cast<std::size_t>(t)];
    }
    table.add_row({std::to_string(p), topo.proc_label(p),
                   std::to_string(tasks.size()), names,
                   std::to_string(load)});
  }
  return table.to_string();
}

std::string render_link_table(const MappingMetrics& metrics,
                              const Topology& topo) {
  std::string out;
  for (const auto& pm : metrics.phases) {
    out += "phase '" + pm.phase_name + "'  (max contention " +
           std::to_string(pm.max_contention) + ", avg dilation " +
           format_fixed(pm.avg_dilation, 3) + ", time " +
           std::to_string(pm.phase_time) + ")\n";
    TextTable table({"link", "joins", "contention", "volume"});
    for (int l = 0; l < topo.num_links(); ++l) {
      const int contention =
          pm.contention_per_link[static_cast<std::size_t>(l)];
      if (contention == 0) {
        continue;
      }
      const auto [u, v] = topo.link_endpoints(l);
      table.add_row({std::to_string(l),
                     topo.proc_label(u) + " -- " + topo.proc_label(v),
                     std::to_string(contention),
                     std::to_string(
                         pm.volume_per_link[static_cast<std::size_t>(l)])});
    }
    out += table.to_string();
  }
  return out;
}

std::string render_summary(const MappingMetrics& metrics) {
  TextTable table({"metric", "value"});
  table.add_row({"completion time", std::to_string(metrics.completion)});
  table.add_row({"total IPC volume", std::to_string(metrics.total_ipc)});
  table.add_row({"avg dilation", format_fixed(metrics.avg_dilation, 3)});
  table.add_row({"max dilation", std::to_string(metrics.max_dilation)});
  table.add_row({"max tasks/proc", std::to_string(metrics.load.max_tasks)});
  table.add_row(
      {"exec imbalance", format_fixed(metrics.load.exec_imbalance, 3)});
  return table.to_string();
}

std::string render_ascii_layout(const TaskGraph& graph,
                                const std::vector<int>& proc_of_task,
                                const Topology& topo) {
  const auto by_proc =
      tasks_by_proc(graph, proc_of_task, topo.num_procs());
  if (topo.family() == TopoFamily::Mesh ||
      topo.family() == TopoFamily::Torus) {
    const int rows = topo.shape()[0];
    const int cols = topo.shape()[1];
    // Cell shows the first task (or count when several).
    std::vector<std::string> cells(
        static_cast<std::size_t>(rows * cols));
    std::size_t width = 1;
    for (int p = 0; p < topo.num_procs(); ++p) {
      const auto& tasks = by_proc[static_cast<std::size_t>(p)];
      std::string text =
          tasks.empty()
              ? "."
              : (tasks.size() == 1
                     ? graph.task_name(tasks[0])
                     : graph.task_name(tasks[0]) + "+" +
                           std::to_string(tasks.size() - 1));
      width = std::max(width, text.size());
      cells[static_cast<std::size_t>(p)] = std::move(text);
    }
    std::string out;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const auto& text =
            cells[static_cast<std::size_t>(topo.at2d(r, c))];
        out += text;
        out.append(width - text.size() + 2, ' ');
      }
      out += '\n';
    }
    return out;
  }
  if (topo.family() == TopoFamily::Ring ||
      topo.family() == TopoFamily::Chain) {
    std::string out;
    for (int p = 0; p < topo.num_procs(); ++p) {
      if (p != 0) {
        out += " -- ";
      }
      const auto& tasks = by_proc[static_cast<std::size_t>(p)];
      out += '[';
      if (tasks.empty()) {
        out += '.';
      } else {
        out += graph.task_name(tasks[0]);
        if (tasks.size() > 1) {
          out += '+';
          out += std::to_string(tasks.size() - 1);
        }
      }
      out += ']';
    }
    if (topo.family() == TopoFamily::Ring) {
      out += " -- (wraps)";
    }
    out += '\n';
    return out;
  }
  return render_assignment_table(graph, proc_of_task, topo);
}

std::string render_task_graph_dot(const TaskGraph& graph) {
  std::string out = "digraph task_graph {\n  node [shape=circle];\n";
  for (int t = 0; t < graph.num_tasks(); ++t) {
    out += "  t" + std::to_string(t) + " [label=\"" + graph.task_name(t) +
           "\"];\n";
  }
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    const auto& phase = graph.comm_phases()[k];
    const char* color = kDotColors[k % (sizeof(kDotColors) /
                                        sizeof(kDotColors[0]))];
    for (const auto& e : phase.edges) {
      out += "  t" + std::to_string(e.src) + " -> t" +
             std::to_string(e.dst) + " [color=" + color + ", label=\"" +
             phase.name + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace oregami
