package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SamplingSpec extends AnyFunSuite {

  test("weightedSample: q is always included") {
    val f = Array.fill(21)(0.5)
    (1 to 5).foreach { s =>
      val ids = Sampling.weightedSample(f, 7, 5, seed = s)
      assert(ids.contains(7), s"seed=$s")
      assert(ids.size === 5)
    }
  }

  test("weightedSample: size larger than population returns everything") {
    val ids = Sampling.weightedSample(Array(0.1, 0.2, 0.3), 0, 10, seed = 1)
    assert(ids.toSet === Set(0, 1, 2))
  }

  test("weightedSample: size 1 returns just q") {
    assert(Sampling.weightedSample(Array(0.1, 0.2), 1, 1, seed = 1).toSet === Set(1))
  }

  test("weightedSample: no duplicates") {
    // Draws come back as an array, so duplicates would show as a short set.
    val f = Array.tabulate(51)(_.toDouble / 60)
    val more = Sampling.weightedSampleMore(f, Set(0), 19, seed = 3)
    assert(more.length === 19)
    assert(more.distinct.length === more.length)
  }

  test("weightedSample: deterministic in the seed") {
    val f = Array.tabulate(51)(_.toDouble / 60)
    val a = Sampling.weightedSample(f, 0, 10, seed = 9)
    val b = Sampling.weightedSample(f, 0, 10, seed = 9)
    assert(a === b)
  }

  test("weightedSample: low-f (similar) nodes are sampled far more often") {
    // group A (1..20): f=0.05 (w=0.95), group B (21..40): f=0.95 (w=0.05)
    val f = Array.tabulate(41)(i => if (i == 0) 0.0 else if (i <= 20) 0.05 else 0.95)
    var aCount = 0; var bCount = 0
    (1 to 20).foreach { s =>
      val ids = Sampling.weightedSample(f, 0, 11, seed = s)
      aCount += ids.count(i => i >= 1 && i <= 20)
      bCount += ids.count(_ > 20)
    }
    assert(aCount > bCount * 2, s"a=$aCount b=$bCount")
  }

  test("weightedSample: handles f=1 (zero weight) without failing") {
    assert(Sampling.weightedSample(Array(0.0, 1.0, 1.0), 0, 3, seed = 1).toSet === Set(0, 1, 2))
  }

  test("weightedSampleMore: excludes already-sampled ids") {
    val f = Array.fill(31)(0.3)
    val first = Sampling.weightedSample(f, 0, 10, seed = 4)
    val more = Sampling.weightedSampleMore(f, first, 10, seed = 5)
    assert(more.toSet.intersect(first).isEmpty)
    assert(more.length === 10)
  }

  test("weightedSampleMore: capped by the remaining population") {
    val f = Array.fill(6)(0.3)
    val first = Sampling.weightedSample(f, 0, 4, seed = 6)
    assert(Sampling.weightedSampleMore(f, first, 10, seed = 7).length === 2)
  }
}
