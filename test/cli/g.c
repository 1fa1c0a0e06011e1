void g(int p) {
  *p = 3;
}
