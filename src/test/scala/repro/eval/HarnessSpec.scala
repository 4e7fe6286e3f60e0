package repro.eval

import repro.{SparkSpec, TestGraphs}
import repro.synthgraph.SynthGraph

class HarnessSpec extends SparkSpec {

  test("pickQueries: only coreness-eligible nodes, deterministic, bounded") {
    val lg = TestGraphs.randomLocal(40, 0.2, seed = 3)
    val core = lg.coreness()
    val qs = Harness.pickQueries(lg, k = 3, count = 5, seed = 1)
    assert(qs.size <= 5)
    qs.foreach(q => assert(core(lg.indexOf(q)) >= 3))
    assert(qs === Harness.pickQueries(lg, 3, 5, seed = 1))
  }

  test("pickQueries: different seeds give different workloads (usually)") {
    val lg = TestGraphs.randomLocal(60, 0.3, seed = 4)
    val a = Harness.pickQueries(lg, 2, 10, seed = 1)
    val b = Harness.pickQueries(lg, 2, 10, seed = 2)
    assert(a !== b)
  }

  test("pickQueries: empty when no node reaches the coreness") {
    val lg = TestGraphs.local(4, Seq((0, 1), (1, 2)))
    assert(Harness.pickQueries(lg, 5, 3, seed = 1).isEmpty)
  }

  test("collectWhole: normalized numerical attributes in [0,1]") {
    val gen = SynthGraph.homogeneous(spark, SynthGraph.HomoSpec(2, 12, 6, 2, seed = 9))
    val lg = Harness.collectWhole(gen.graph)
    assert(lg.n === 24)
    (0 until lg.n).foreach { i =>
      lg.num(i).foreach(x => assert(x >= -1e-9 && x <= 1 + 1e-9))
    }
  }

  test("timeMs measures and returns the body result") {
    val (x, t) = Harness.timeMs { Thread.sleep(5); 42 }
    assert(x === 42)
    assert(t >= 4.0)
  }
}
